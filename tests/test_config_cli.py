import argparse
import csv
import math
import os
import shlex
import subprocess
import sys
from dataclasses import astuple, replace
from pathlib import Path

import numpy as np
import pytest

import ris_nfloc
from ris_nfloc import cli, harness
from ris_nfloc.cli import main
from ris_nfloc.config import (
    ConfigError,
    apply_sweep_value,
    config_template,
    floor_point,
    load_config,
)

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
    # the UE's arrivals equal those of its mirror image across the RIS wall
    # plane, which here has floor on both sides
    "ris_plane_splits_floor": "[scene]\ntile_count = 16\nris_center_m = 5,5,2\n",
    # a vertical RIS stands over one floor point: its arrivals fix only the
    # UE's distance from it
    "vertical_ris_axis": "[scene]\ntile_count = 16\nris_axis = 0,0,1\n",
    # values the constructors of a trial's waveform, layout and multipath
    # model reject, and values no trial can draw or transform with
    "zero_oversampling": "[experiment]\noversampling = 0\n",
    "zero_carrier": "[waveform]\ncarrier_hz = 0\n",
    "zero_subcarriers": "[waveform]\nsubcarriers = 0\n",
    "zero_tile_spacing": "[scene]\ntile_spacing_m = 0\n",
    # every tile center at one point, which failed each trial at run time
    "coincident_tiles": "[scene]\ntile_spacing_m = 1e-13\n",
    # the BS on the middle tile's center, where the path loss diverges; it
    # failed each trial at run time
    "bs_on_tile_center": "[scene]\ntile_count = 15\nbs_position_m = 5,10,2\n",
    "negative_multipath_paths": "[multipath]\npaths = -1\n",
    "zero_excess_min": "[multipath]\nexcess_min_m = 0\n",
    "negative_clock_uncertainty": "[experiment]\nclock_uncertainty_s = -1\n",
    # non-finite values ran to NaN or inf results, and a zero gain reference
    # censored every trial
    "nan_noise": "[waveform]\nnoise_dbm = nan\n",
    "inf_power": "[waveform]\npower_dbm = inf\n",
    "zero_gain_reference": "[experiment]\ngain_reference = 0\n",
    # the admissibility floor is a positive multiple of the column median; a
    # zero or negative factor admitted every local maximum and ran
    "zero_peak_threshold": "[experiment]\npeak_threshold = 0\n",
    "negative_peak_threshold": "[experiment]\npeak_threshold = -1\n",
    # powers and gains whose noise ratio N0/(P*gain_reference**2) overflows
    # a float or underflows to 0, which would run noiseless frames and divide
    # the SNR by zero
    "huge_power": "[waveform]\npower_dbm = 4000\n",
    "huge_noise": "[waveform]\nnoise_dbm = 4000\n",
    "vanishing_noise": "[waveform]\nnoise_dbm = -4000\n",
    "noise_ratio_underflows": DESK_INI + "gain_reference = 1e170\n",
    # a trial's channel overflows a float: a wavelength c / carrier_hz, a
    # multipath phase 2*pi*excess/wavelength or a multipath power ratio that
    # is not finite gave NaN spectra, counted as censored trials
    "wavelength_overflows": "[waveform]\ncarrier_hz = 1e-300\n",
    "multipath_phase_overflows": "[multipath]\nexcess_max_m = 1e308\n",
    "multipath_power_overflows": "[multipath]\npower_rel_db = 6000\n",
    # a trial's delay arithmetic overflows a float, which failed the first
    # trial: the squared delay-period range (c / spacing_hz)**2 left the
    # position solve no finite cost, the squared bandwidth raised in the
    # error bound, and the clock-offset phase gave NaN spectra
    "delay_period_overflows": "[waveform]\nspacing_hz = 1e-300\n",
    "bandwidth_square_overflows": "[waveform]\nspacing_hz = 1e200\n",
    "clock_phase_overflows": "[experiment]\nclock_uncertainty_s = 1e300\n",
    # desk gains whose largest SNR times the error bound's delay information
    # overflows a float: 1e150 warned of overflow in the bound, 1e155 failed
    # the first trial's matrix pencil
    "gain_snr_overflows": DESK_INI + "gain_reference = 1e150\n",
    "gain_height_overflows": DESK_INI + "gain_reference = 1e155\n",
    # a negative resolvability margin switched the guard off as 0 does
    "negative_resolvability_margin": "[experiment]\nresolvability_margin = -5\n",
    # a spectrum map of 16 x 3.2e18 cells, which passed the load and failed
    # the first trial with exit 3
    "oversampling_too_large_for_memory": "[experiment]\noversampling = "
    + str(10**15) + "\n",
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


@pytest.mark.parametrize("name, key", [
    ("delay_period_overflows", "[waveform] spacing_hz = 1e-300"),
    ("bandwidth_square_overflows", "[waveform] spacing_hz = 1e+200"),
    ("clock_phase_overflows", "[experiment] clock_uncertainty_s = 1e+300"),
    ("gain_snr_overflows", "[experiment] gain_reference = 1e+150 with [waveform] "
     "spacing_hz = 1.5625e+06, [waveform] power_dbm = 20, [waveform] noise_dbm = -8 "
     "overflows the delay information"),
    ("gain_height_overflows", "[experiment] gain_reference = 1e+155 with [waveform] "
     "spacing_hz = 1.5625e+06, [waveform] power_dbm = 20, [waveform] noise_dbm = -8 "
     "overflows the delay information"),
])
def test_delay_arithmetic_overflow_names_its_key(name, key, tmp_path):
    bad = tmp_path / "bad.ini"
    bad.write_text(BAD_CONFIGS[name])
    with pytest.raises(ConfigError, match="overflows") as excinfo:
        load_config(str(bad))
    assert str(excinfo.value).startswith(key)


@pytest.mark.parametrize("name, values", [
    ("huge_power", "power_dbm = 4000 with [waveform] noise_dbm = -8, "
     "[experiment] gain_reference = 2 gives the noise ratio N0/(P*gain_reference**2) = 0"),
    ("huge_noise", "power_dbm = 20 with [waveform] noise_dbm = 4000, "
     "[experiment] gain_reference = 2 gives the noise ratio N0/(P*gain_reference**2) = inf"),
    ("vanishing_noise", "power_dbm = 20 with [waveform] noise_dbm = -4000, "
     "[experiment] gain_reference = 2 gives the noise ratio N0/(P*gain_reference**2) = 0"),
    ("noise_ratio_underflows", "power_dbm = 20 with [waveform] noise_dbm = -8, "
     "[experiment] gain_reference = 1e+170 gives the noise ratio "
     "N0/(P*gain_reference**2) = 0"),
])
def test_noise_ratio_out_of_range_names_its_keys(name, values, tmp_path):
    bad = tmp_path / "bad.ini"
    bad.write_text(BAD_CONFIGS[name])
    with pytest.raises(ConfigError) as excinfo:
        load_config(str(bad))
    assert str(excinfo.value).startswith("[waveform] " + values)


def _with_powers(power_dbm, noise_dbm):
    return DESK_INI.replace(
        "[assignment]",
        f"power_dbm = {power_dbm}\nnoise_dbm = {noise_dbm}\n\n[assignment]")


def test_trials_see_only_the_noise_ratio(tmp_path):
    # 3120 dBm is beyond a float in watts; at the default's -28 dB ratio of
    # noise to transmit power the trials are the default's, bit for bit
    path = tmp_path / "shifted.ini"
    path.write_text(_with_powers(3120, 3092))
    shifted = replace(load_config(str(path)), seed=1, trials=20)
    path.write_text(DESK_INI)
    default = replace(load_config(str(path)), seed=1, trials=20)
    np.testing.assert_array_equal(
        [astuple(r) for r in harness.run_trials(shifted)],
        [astuple(r) for r in harness.run_trials(default)],
    )


def test_noise_far_above_the_signal_runs(tmp_path):
    # an SNR near -508 dB, far below detection: the product of the powers in
    # watts overflows a float, yet their ratio is finite, so simulate and peb
    # run
    path = tmp_path / "noisy.ini"
    path.write_text(_with_powers(1530, 2030))
    load_config(str(path))
    out = tmp_path / "out"
    for command in (["--trials", "3", "simulate"], ["peb"]):
        assert main(["--config", str(path), "--out", str(out), *command]) == 0


def test_tiny_spacing_with_a_large_gain_runs(tmp_path):
    # a range resolution c/B near 1e152 m and large peak heights: the solve
    # weighs each arrival relative to the reference arrival, so its cost
    # stays finite, and simulate and peb run without a warning
    path = tmp_path / "weighted.ini"
    path.write_text(DESK_INI.replace("1.5625e6", "1e-145") + "gain_reference = 1e4\n")
    load_config(str(path))
    out = tmp_path / "out"
    for command in (["--trials", "3", "simulate"], ["peb"]):
        assert main(["--config", str(path), "--out", str(out), *command]) == 0
    with open(out / "trials.csv", newline="") as f:
        rows = list(csv.DictReader(f))
    assert len(rows) == 3
    errors = [float(row[f"error_{arm}_m"]) for row in rows for arm in harness.ARMS]
    assert all(math.isfinite(e) for e in errors)


def test_unallocatable_spectrum_map_names_its_keys(tmp_path):
    bad = tmp_path / "bad.ini"
    bad.write_text(BAD_CONFIGS["oversampling_too_large_for_memory"])
    with pytest.raises(ConfigError) as excinfo:
        load_config(str(bad))
    assert str(excinfo.value).startswith(
        "[experiment] oversampling = 1000000000000000 with [waveform] subcarriers "
        "= 3200, [assignment] frames = 16 gives a spectrum map that cannot be "
        "allocated: ")


def test_resolvability_margin_zero_loads_and_negative_names_its_key(tmp_path):
    # 0 is the one margin that labels every detected shared group
    path = tmp_path / "margin.ini"
    path.write_text("[experiment]\nresolvability_margin = 0\n")
    assert load_config(str(path)).resolvability_margin == 0.0
    path.write_text(BAD_CONFIGS["negative_resolvability_margin"])
    with pytest.raises(ConfigError) as excinfo:
        load_config(str(path))
    assert str(excinfo.value) == (
        "[experiment] resolvability_margin = -5 must not be negative")


@pytest.mark.parametrize("text", [
    "[waveform]\nspacing_hz = 1e-145\n",
    # near 2e147 at the defaults the error bound's delay information
    # 8*pi**2*B**2*SNR overflows, which leaves every tile a zero delay
    # variance and the PEB infinite
    "[waveform]\nspacing_hz = 1e147\n",
    "[experiment]\nclock_uncertainty_s = 5e296\n",
], ids=["small_spacing", "large_spacing", "large_clock_uncertainty"])
def test_delay_arithmetic_within_a_decade_of_overflow_loads(text, tmp_path):
    # each of these runs its trials without a warning
    path = tmp_path / "edge.ini"
    path.write_text(text)
    load_config(str(path))


def test_invalid_assignment_from_override_exits_2(desk_config, tmp_path, capsys):
    out = str(tmp_path / "out")
    assert main(["--config", desk_config, "--out", out, "--frames", "4", "peb"]) == 2
    assert main(["--config", desk_config, "--out", out, "--frames", "16", "peb"]) == 0


def test_a_flag_replaces_a_file_value_before_the_check(tmp_path, capsys):
    # the file alone leaves no slope for the shared groups; the flag mends it
    path = tmp_path / "four.ini"
    path.write_text(DESK_INI.replace("frames = 8", "frames = 4"))
    out = str(tmp_path / "out")
    assert main(["--config", str(path), "--out", out, "peb"]) == 2
    assert "frames = 4" in capsys.readouterr().err
    args = ["--config", str(path), "--out", out, "--frames", "8", "--trials", "2"]
    assert main(args + ["simulate"]) == 0
    # the bandwidth flag divides by the file's subcarrier count, which the
    # check rejects when it is zero
    path.write_text("[waveform]\nsubcarriers = 0\n")
    assert main(["--config", str(path), "--out", out, "--bandwidth-hz", "4e8", "peb"]) == 2
    assert "subcarriers = 0" in capsys.readouterr().err


def test_floor_point_needs_two_coordinates(desk_config):
    cfg = load_config(desk_config)
    for xy in ((5.0,), (5.0, 5.0, 0.0)):
        with pytest.raises(ConfigError, match="needs 2 coordinates"):
            floor_point(cfg, xy)
    assert floor_point(cfg, (5.0, 4.0)).tolist() == [5.0, 4.0, 0.0]


@pytest.mark.parametrize("fields, named", [
    ("ris_axis=(0, 0, 1)", "vertical"),
    # no floor beyond the margin: the UE draw would never end
    ("wall_margin_m=12.0", "wall_margin_m"),
    # floor on both sides of the wall: every UE would have a mirror twin
    ("ris_center_m=(5.0, 5.0, 2.0)", "ris_center_m"),
], ids=["vertical_axis", "no_floor_beyond_margin", "floor_on_both_sides"])
def test_an_unchecked_vertical_ris_fails_its_first_trial(fields, named):
    # a config built in code skips check_config; its first trial raises
    # instead of drawing UEs against a wall that does not exist.  A
    # subprocess, so a hang fails instead of stalling the suite
    src = str(Path(ris_nfloc.__file__).resolve().parents[1])
    code = (
        "import sys\n"
        "from ris_nfloc.config import ExperimentConfig\n"
        "from ris_nfloc.harness import run_trial\n"
        f"cfg = ExperimentConfig(tile_count=16, {fields})\n"
        "try:\n"
        "    run_trial(cfg, 0)\n"
        "except ValueError as exc:\n"
        f"    sys.exit(0 if {named!r} in str(exc) else 1)\n"
        "sys.exit(1)\n"
    )
    done = subprocess.run([sys.executable, "-c", code], timeout=60,
                          env={**os.environ, "PYTHONPATH": src})
    assert done.returncode == 0


def test_a_pipeline_failure_exits_3(monkeypatch, capsys):
    def boom(cfg):
        raise RuntimeError("boom")

    monkeypatch.setattr(harness, "run_trials", boom)
    assert main(["--trials", "1", "simulate"]) == 3
    assert "pipeline failure: boom" in capsys.readouterr().err


BAD_ARGUMENTS = {
    "bandwidth_override": ["--bandwidth-hz", "0", "simulate"],
    "trials_override": ["--trials", "0", "simulate"],
    "seed_override": ["--seed", "-2", "simulate"],
    # sweep points no trial can run with: no shared-group slope left, too
    # few exclusive-slope tiles, no bandwidth
    "sweep_L": ["sweep", "--var", "L", "--values", "8,4"],
    "sweep_K": ["sweep", "--var", "K", "--values", "2"],
    "sweep_B": ["sweep", "--var", "B", "--values", "0"],
    # a delay period of 2.6e292 s, whose range squared overflows
    "sweep_B_tiny": ["sweep", "--var", "B", "--values", "1e-290"],
    # K and L count tiles and frames; a fraction would be truncated
    "sweep_K_fraction": ["sweep", "--var", "K", "--values", "16.7"],
    "sweep_L_fraction": ["sweep", "--var", "L", "--values", "8.5"],
    "sweep_K0_fraction": ["sweep", "--var", "K0", "--values", "4.5"],
    # two exclusive-slope tiles cannot bootstrap a position fix
    "sweep_K0_two_anchors": ["sweep", "--var", "K0", "--values", "5,2"],
    # with a frame per tile every tile has its own slope, whatever K0 says
    "sweep_K0_frame_per_tile": ["--frames", "16", "sweep", "--var", "K0", "--values", "3,5"],
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


def test_bench_runs_on_every_config_simulate_runs(tmp_path):
    # four tiles and four frames, all exclusive, is a config simulate runs;
    # bench times the spectrum stage only, so it runs there too
    path = tmp_path / "four.ini"
    path.write_text(DESK_INI.replace("tile_count = 16", "tile_count = 4").replace(
        "frames = 8", "frames = 4\nexclusive_tiles = 4"))
    out = tmp_path / "out"
    args = ["--config", str(path), "--out", str(out)]
    assert main(args + ["simulate"]) == 0
    assert main(args + ["bench", "--sizes", "64,128"]) == 0
    lines = (out / "timing.csv").read_text().splitlines()
    assert lines[0] == "stage,size,seconds"
    assert [line.split(",")[:2] for line in lines[1:]] == [
        ["spectrum_fft", "4096"], ["spectrum_fft", "8192"]]


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


def test_cli_summary_lines(monkeypatch, desk_config, tmp_path, capsys):
    # fixed results pin the simulate and sweep lines: names, order, .4g
    def trial(error_p, error_b, censored_p):
        return harness.TrialResult(
            error_proposed=error_p, error_baseline=error_b,
            label_acc_proposed=0.0 if censored_p else 2.0 / 3.0,
            label_acc_baseline=0.5, labeled_proposed=0 if censored_p else 16,
            labeled_baseline=16, censored_proposed=censored_p,
            censored_baseline=False, peb=0.25,
        )

    trials = [trial(1.0 / 3.0, 3.0, False), trial(float("nan"), 4.0, True)]
    monkeypatch.setattr(harness, "run_trials", lambda cfg: trials)
    points = tuple(
        harness.SweepPoint(
            sweep_value=value, rmse_proposed=rmse_p, rmse_baseline=rmse_b, peb=peb,
            label_acc=1.0, censored_fraction=0.0, wall_time_s=0.5,
        )
        for value, rmse_p, rmse_b, peb in (
            (8.0, 1.0 / 3.0, 12345.678, 2.0 / 3.0),
            (16.0, float("nan"), 0.5, 1e-3),
        )
    )
    monkeypatch.setattr(
        harness, "sweep", lambda cfg, var, values: harness.MetricsTable(var, points)
    )
    args = ["--config", desk_config, "--out", str(tmp_path / "out"), "--trials", "2"]
    assert main(args + ["simulate"]) == 0
    assert capsys.readouterr().out == (
        "trials=2 rmse_proposed=0.3333 rmse_baseline=3.536 label_acc=0.6667 "
        "censored=0.5\n"
    )
    assert main(args + ["sweep", "--var", "L", "--values", "8,16"]) == 0
    assert capsys.readouterr().out == (
        "L=8 rmse_proposed=0.3333 rmse_baseline=1.235e+04 peb=0.6667\n"
        "L=16 rmse_proposed=nan rmse_baseline=0.5 peb=0.001\n"
    )


# 10**15 int64 values take 8 PB, beyond any process's address space, so
# numpy refuses the array at once whatever the memory overcommit policy
@pytest.mark.parametrize("args, key", [
    (["--tiles", str(10**15), "simulate"], "[scene] tile_count = 1000000000000000"),
    (["--frames", str(10**15), "simulate"], "[assignment] frames = 1000000000000000"),
    (["--trials", "1", "sweep", "--var", "K", "--values", "1e15"],
     "[scene] tile_count = 1000000000000000"),
], ids=["tiles", "frames", "sweep_K"])
def test_a_size_too_large_for_memory_exits_2(args, key, desk_config, tmp_path, capsys):
    out = tmp_path / "out"
    assert main(["--config", desk_config, "--out", str(out)] + args) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error: ") and key in err


def test_cli_sweep_over_exclusive_tiles(desk_config, tmp_path):
    assert apply_sweep_value(load_config(desk_config), "K0", 5.0).exclusive_tiles == 5
    out = tmp_path / "out"
    code = main(
        [
            "--config", desk_config, "--out", str(out), "--trials", "2",
            "sweep", "--var", "K0", "--values", "3,6",
        ]
    )
    assert code == 0
    rows = (out / "sweep.csv").read_text().strip().splitlines()[1:]
    assert [row.split(",")[0] for row in rows] == ["3", "6"]


def test_sweep_over_exclusive_tiles_needs_shared_slopes(desk_config):
    cfg = replace(load_config(desk_config), frames=16)
    with pytest.raises(ConfigError, match="frames = 16 >= .*tile_count = 16"):
        apply_sweep_value(cfg, "K0", 5)


def test_out_that_is_not_a_directory_exits_2(desk_config, tmp_path, capsys):
    taken = tmp_path / "taken"
    taken.write_text("not a directory\n")
    for out in (taken, taken / "sub"):
        assert main(["--config", desk_config, "--out", str(out), "simulate"]) == 2
        assert "config error: --out" in capsys.readouterr().err
    assert taken.read_text() == "not a directory\n"


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


def test_readme_cli_block_matches_the_parser():
    # every `ris-nfloc` line of README's CLI block parses with the real
    # parser, and together they name every subcommand it defines
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    block = readme.split("## CLI", 1)[1].split("```sh\n", 1)[1].split("```", 1)[0]
    parser = cli._build_parser()
    (subparsers,) = [
        a for a in parser._actions if isinstance(a, argparse._SubParsersAction)
    ]
    named = set()
    for line in block.splitlines():
        words = shlex.split(line.split("#", 1)[0])
        assert words[0] == "ris-nfloc", line
        if ">" in words:  # a shell redirect, not an argument
            words = words[: words.index(">")]
        args = parser.parse_args(words[1:])
        assert args.command is not None or args.print_config, line
        named.add(args.command)
    assert named - {None} == set(subparsers.choices)
