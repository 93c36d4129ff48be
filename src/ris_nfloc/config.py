"""Config file handling: flat key-value sections mapped onto ExperimentConfig.

The file is INI-style with sections [scene], [waveform], [assignment],
[multipath], [experiment]; physical keys carry their unit in the name.  Any
unknown section or key is a configuration error so typos fail loudly.
"""

from __future__ import annotations

import configparser

import numpy as np

from .harness import ExperimentConfig, floor_wall_clearance


class ConfigError(ValueError):
    pass


def _vector(text: str) -> tuple:
    try:
        return tuple(float(x) for x in text.split(","))
    except ValueError as exc:
        raise ConfigError(f"expected comma-separated numbers, got {text!r}") from exc


def _point(values) -> str:
    return "(" + ", ".join(f"{v:g}" for v in values) + ")"


def _boolean(text: str) -> bool:
    lowered = text.strip().lower()
    if lowered in ("1", "true", "yes", "on"):
        return True
    if lowered in ("0", "false", "no", "off"):
        return False
    raise ConfigError(f"expected a boolean, got {text!r}")


# (section, key) -> (ExperimentConfig field, parser)
_SCHEMA = {
    ("scene", "tile_count"): ("tile_count", int),
    ("scene", "tile_spacing_m"): ("tile_spacing_m", float),
    ("scene", "ris_center_m"): ("ris_center_m", _vector),
    ("scene", "ris_axis"): ("ris_axis", _vector),
    ("scene", "elements_x"): ("elements_x", int),
    ("scene", "elements_z"): ("elements_z", int),
    ("scene", "bs_position_m"): ("bs_position_m", _vector),
    ("scene", "room_min_m"): ("room_min_m", _vector),
    ("scene", "room_max_m"): ("room_max_m", _vector),
    ("scene", "wall_margin_m"): ("wall_margin_m", float),
    ("waveform", "subcarriers"): ("subcarriers", int),
    ("waveform", "spacing_hz"): ("spacing_hz", float),
    ("waveform", "carrier_hz"): ("carrier_hz", float),
    ("waveform", "power_dbm"): ("power_dbm", float),
    ("waveform", "noise_dbm"): ("noise_dbm", float),
    ("assignment", "frames"): ("frames", int),
    ("assignment", "exclusive_tiles"): ("exclusive_tiles", int),
    ("multipath", "paths"): ("multipath_paths", int),
    ("multipath", "power_rel_db"): ("multipath_power_db", float),
    ("multipath", "excess_min_m"): ("multipath_excess_min_m", float),
    ("multipath", "excess_max_m"): ("multipath_excess_max_m", float),
    ("experiment", "trials"): ("trials", int),
    ("experiment", "seed"): ("seed", int),
    ("experiment", "oversampling"): ("oversampling", int),
    ("experiment", "clock_uncertainty_s"): ("clock_uncertainty_s", float),
    ("experiment", "refine"): ("refine", _boolean),
    ("experiment", "peak_threshold"): ("peak_threshold", float),
    ("experiment", "residual_cap"): ("residual_cap", int),
    ("experiment", "gain_reference"): ("gain_reference", float),
    ("experiment", "resolvability_margin"): ("resolvability_margin", float),
    ("experiment", "magnitude_weighting"): ("magnitude_weighting", _boolean),
}


def load_config(path=None) -> ExperimentConfig:
    """Defaults, optionally overridden from an INI file and then checked
    by :func:`check_config`."""
    if path is None:
        return ExperimentConfig()
    parser = configparser.ConfigParser()
    read = parser.read(path)
    if not read:
        raise ConfigError(f"cannot read config file {path}")
    overrides = {}
    for section in parser.sections():
        for key, raw in parser.items(section):
            try:
                field, parse = _SCHEMA[(section, key)]
            except KeyError:
                raise ConfigError(f"unknown config key [{section}] {key}") from None
            try:
                overrides[field] = parse(raw)
            except (ValueError, ConfigError) as exc:
                raise ConfigError(
                    f"bad value for [{section}] {key}: {raw!r} ({exc})"
                ) from None
    return check_config(ExperimentConfig(**overrides))


def check_config(cfg: ExperimentConfig) -> ExperimentConfig:
    """Reject field combinations no trial can run with; returns ``cfg``.

    A run needs at least one trial and a positive subcarrier spacing; the
    closed room box must contain the BS and every RIS tile center; the UE
    needs floor area beyond ``wall_margin_m``; the slope assignment must
    exist for (tile_count, frames, exclusive_tiles) and give at least three
    exclusive-slope tiles; and its largest slope group must fit the residual
    labeler's ``residual_cap``.
    """
    if cfg.trials < 1:
        raise ConfigError(f"[experiment] trials = {cfg.trials} must be at least 1")
    if not cfg.spacing_hz > 0:
        raise ConfigError(
            f"[waveform] spacing_hz = {cfg.spacing_hz:g} must be positive"
        )
    points = ("ris_center_m", "ris_axis", "bs_position_m", "room_min_m", "room_max_m")
    for field in points:
        if len(getattr(cfg, field)) != 3:
            raise ConfigError(f"[scene] {field} needs 3 components (x, y, z)")
    try:
        layout = cfg.layout()
    except ValueError as exc:
        raise ConfigError(f"bad RIS layout in [scene]: {exc}") from None
    lo, hi = np.asarray(cfg.room_min_m), np.asarray(cfg.room_max_m)
    if not np.all((lo <= cfg.bs_position_m) & (cfg.bs_position_m <= hi)):
        raise ConfigError(
            f"[scene] bs_position_m = {_point(cfg.bs_position_m)} lies outside "
            f"the room {_point(lo)} to {_point(hi)}"
        )
    centers = layout.tile_centers()
    outside = np.flatnonzero(~np.all((lo <= centers) & (centers <= hi), axis=1))
    if outside.size:
        raise ConfigError(
            f"[scene] RIS tile {outside[0] + 1} of {cfg.tile_count} at "
            f"{_point(centers[outside[0]])} lies outside the room "
            f"{_point(lo)} to {_point(hi)}"
        )
    clearance = floor_wall_clearance(cfg)
    if clearance <= cfg.wall_margin_m:
        raise ConfigError(
            f"[scene] wall_margin_m = {cfg.wall_margin_m:g} leaves no floor "
            f"position for the UE: the floor reaches {clearance:g} m from the "
            "RIS wall at most"
        )
    try:
        assignment = cfg.assignment()
    except ValueError as exc:
        raise ConfigError(
            f"no slope assignment for [scene] tile_count = {cfg.tile_count} "
            f"with [assignment] frames = {cfg.frames}, "
            f"exclusive_tiles = {cfg.exclusive_tiles}: {exc}"
        ) from None
    if assignment.k0_size < 3:
        raise ConfigError(
            f"[scene] tile_count = {cfg.tile_count} leaves {assignment.k0_size} "
            "exclusive-slope tiles; a position fix needs at least 3"
        )
    if assignment.max_dod > cfg.residual_cap:
        raise ConfigError(
            f"[experiment] residual_cap = {cfg.residual_cap} is below the "
            f"largest slope group ({assignment.max_dod} tiles)"
        )
    return cfg


def config_template() -> str:
    """Schema documentation: all keys with their defaults."""
    defaults = ExperimentConfig()
    lines = []
    current = None
    for (section, key), (field, _) in _SCHEMA.items():
        if section != current:
            if current is not None:
                lines.append("")
            lines.append(f"[{section}]")
            current = section
        value = getattr(defaults, field)
        if isinstance(value, tuple):
            value = ",".join(f"{v:g}" for v in value)
        lines.append(f"{key} = {value}")
    return "\n".join(lines) + "\n"
