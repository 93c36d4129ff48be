"""ExperimentConfig, its INI file, and every check that decides if it can run.

The file has flat sections [scene], [waveform], [assignment], [multipath],
[experiment]; physical keys carry their unit in the name, and an unknown
section or key is a configuration error so typos fail loudly.
:func:`check_config`, :func:`apply_sweep_value` and :func:`floor_point` reject
what no trial can run with before the first trial.  Only leaf modules are
imported here, never the harness that runs the trials.
"""

from __future__ import annotations

import configparser
from dataclasses import dataclass, fields, replace

import numpy as np

from .channel import MultipathConfig
from .constants import SPEED_OF_LIGHT
from .geometry import RisLayout
from .psp import PspAssignment, assign
from .waveform import WaveformConfig


class ConfigError(ValueError):
    pass


def _dbm_to_watt(dbm: float) -> float:
    return 1e-3 * 10.0 ** (dbm / 10.0)


@dataclass(frozen=True)
class ExperimentConfig:
    """Full experiment description; defaults follow the reference setup
    (64-tile linear RIS on the y=10 wall of a 10x10x3 room, 400 MHz OFDM
    at 28 GHz)."""

    # scene
    tile_count: int = 64
    tile_spacing_m: float = 0.1
    ris_center_m: tuple = (5.0, 10.0, 2.0)
    ris_axis: tuple = (1.0, 0.0, 0.0)
    elements_x: int = 4
    elements_z: int = 10
    bs_position_m: tuple = (0.0, 5.0, 2.0)
    room_min_m: tuple = (0.0, 0.0, 0.0)
    room_max_m: tuple = (10.0, 10.0, 3.0)
    wall_margin_m: float = 0.5
    # waveform
    subcarriers: int = 3200
    spacing_hz: float = 120e3
    carrier_hz: float = 28e9
    power_dbm: float = 20.0
    noise_dbm: float = -8.0
    # slope assignment
    frames: int = 16
    exclusive_tiles: int = 4
    # multipath
    multipath_paths: int = 3
    multipath_power_db: float = -15.0
    multipath_excess_min_m: float = 0.5
    multipath_excess_max_m: float = 5.0
    # experiment
    trials: int = 1000
    seed: int = 1
    oversampling: int = 4
    clock_uncertainty_s: float = 1e-6
    peak_threshold: float = 6.0
    gain_reference: float = 2.0
    resolvability_margin: float = 2.0

    @property
    def bandwidth_hz(self) -> float:
        return self.subcarriers * self.spacing_hz

    @property
    def wavelength_m(self) -> float:
        return SPEED_OF_LIGHT / self.carrier_hz

    @property
    def room(self) -> tuple:
        return (self.room_min_m, self.room_max_m)

    def waveform_config(self) -> WaveformConfig:
        return WaveformConfig(
            n_subcarriers=self.subcarriers,
            spacing=self.spacing_hz,
            carrier=self.carrier_hz,
            tx_power=_dbm_to_watt(self.power_dbm),
            noise_psd=_dbm_to_watt(self.noise_dbm),
            l_frames=self.frames,
        )

    def layout(self) -> RisLayout:
        return RisLayout(
            tile_count=self.tile_count,
            tile_spacing=self.tile_spacing_m,
            center=np.asarray(self.ris_center_m, dtype=float),
            axis=np.asarray(self.ris_axis, dtype=float),
            elements_x=self.elements_x,
            elements_z=self.elements_z,
        )

    def assignment(self) -> PspAssignment:
        return assign(self.tile_count, self.frames, self.exclusive_tiles)

    def multipath(self, seed: int) -> MultipathConfig:
        """The multipath model of one trial, drawing from ``seed``."""
        return MultipathConfig(
            j_paths=self.multipath_paths,
            power_rel_db=self.multipath_power_db,
            excess_min_m=self.multipath_excess_min_m,
            excess_max_m=self.multipath_excess_max_m,
            seed=seed,
        )

    def wall_normal(self) -> np.ndarray | None:
        """Horizontal unit normal of the RIS wall; None for a vertical RIS axis."""
        normal = np.cross(np.asarray(self.ris_axis, dtype=float), [0.0, 0.0, 1.0])
        norm = np.linalg.norm(normal)
        return None if norm < 1e-9 else normal / norm


def _vector(text: str) -> tuple:
    try:
        return tuple(float(x) for x in text.split(","))
    except ValueError as exc:
        raise ConfigError(f"expected comma-separated numbers, got {text!r}") from exc


def _point(values) -> str:
    return "(" + ", ".join(f"{v:g}" for v in values) + ")"


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
    ("experiment", "peak_threshold"): ("peak_threshold", float),
    ("experiment", "gain_reference"): ("gain_reference", float),
    ("experiment", "resolvability_margin"): ("resolvability_margin", float),
}

# ExperimentConfig field -> its key as error messages name it
_KEYS = {field: f"[{section}] {key}" for (section, key), (field, _) in _SCHEMA.items()}


def load_config(path=None) -> ExperimentConfig:
    """Defaults, optionally overridden from an INI file and then checked
    by :func:`check_config`.  A file configparser cannot parse (a key before
    any section, a line without ``=``, a repeated section or key) is a
    :class:`ConfigError` too."""
    if path is None:
        return ExperimentConfig()
    parser = configparser.ConfigParser()
    try:
        if not parser.read(path):
            raise ConfigError(f"cannot read config file {path}")
        items = [(s, k, raw) for s in parser.sections() for k, raw in parser.items(s)]
    except configparser.Error as exc:
        raise ConfigError(f"cannot parse config file {path}: {exc}") from None
    overrides = {}
    for section, key, raw in items:
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

    Every float and point field must be finite.  A run needs at least one
    trial, at least two subcarriers (one subcarrier gives every slope column
    a flat delay profile without a peak), a non-negative seed, an
    oversampling factor of at least 1, a non-negative clock uncertainty and a
    positive ``gain_reference``.  The RIS layout, the waveform and the
    multipath model must pass the constructors a trial builds them with.  The
    closed room box must contain the BS, every RIS tile center and the floor
    rectangle at z = 0 that UEs are drawn on; the UE needs floor area beyond
    ``wall_margin_m``; and the slope assignment must exist for (tile_count,
    frames, exclusive_tiles) and give at least three exclusive-slope tiles.
    """
    for f in fields(cfg):
        value = getattr(cfg, f.name)
        if isinstance(value, (float, tuple)) and not np.all(np.isfinite(value)):
            raise ConfigError(f"{_KEYS[f.name]} = {value} is not finite")
    for field, holds, rule in (
        ("trials", cfg.trials >= 1, "must be at least 1"),
        ("subcarriers", cfg.subcarriers >= 2, "must be at least 2"),
        ("seed", cfg.seed >= 0, "must not be negative"),
        ("oversampling", cfg.oversampling >= 1, "must be at least 1"),
        ("clock_uncertainty_s", cfg.clock_uncertainty_s >= 0, "must not be negative"),
        ("gain_reference", cfg.gain_reference > 0, "must be positive"),
    ):
        if not holds:
            raise ConfigError(f"{_KEYS[field]} = {getattr(cfg, field):g} {rule}")
    points = ("ris_center_m", "ris_axis", "bs_position_m", "room_min_m", "room_max_m")
    for field in points:
        if len(getattr(cfg, field)) != 3:
            raise ConfigError(f"[scene] {field} needs 3 components (x, y, z)")
    try:
        layout = cfg.layout()
    except ValueError as exc:
        raise ConfigError(f"bad RIS layout in [scene]: {exc}") from None
    _check_in_room(cfg, "[scene] bs_position_m", np.atleast_2d(cfg.bs_position_m))
    tiles = f"[scene] RIS tile {{}} of {cfg.tile_count}"
    _check_in_room(cfg, tiles, layout.tile_centers())
    _check_in_room(cfg, "[scene] floor corner {} (z = 0)", _floor_corners(cfg))
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
            f"[scene] tile_count = {cfg.tile_count} with [assignment] frames = "
            f"{cfg.frames}, exclusive_tiles = {cfg.exclusive_tiles} leaves "
            f"{assignment.k0_size} exclusive-slope tiles; a position fix needs at least 3"
        )
    for section, build in (
        ("waveform", cfg.waveform_config),
        ("multipath", lambda: cfg.multipath(seed=0)),
    ):
        try:
            build()
        except ValueError as exc:
            raise ConfigError(f"bad [{section}] values: {exc}") from None
    return cfg


def _check_in_room(cfg: ExperimentConfig, what: str, points: np.ndarray) -> None:
    """ConfigError unless the closed room box holds every row of ``points``,
    so a non-finite row fails too; ``what.format(row number)`` names a row."""
    lo, hi = np.asarray(cfg.room_min_m), np.asarray(cfg.room_max_m)
    outside = np.flatnonzero(~np.all((lo <= points) & (points <= hi), axis=1))
    if outside.size:
        raise ConfigError(
            f"{what.format(outside[0] + 1)} at {_point(points[outside[0]])} lies "
            f"outside the room {_point(lo)} to {_point(hi)}"
        )


def _floor_corners(cfg: ExperimentConfig) -> np.ndarray:
    """(4, 3) corners of the floor rectangle the UE is drawn on, at z = 0."""
    lo, hi = cfg.room_min_m, cfg.room_max_m
    return np.array([[x, y, 0.0] for x in (lo[0], hi[0]) for y in (lo[1], hi[1])])


def floor_wall_clearance(cfg: ExperimentConfig) -> float:
    """Largest distance of a floor point from the RIS wall plane.

    UE draws need a clearance above ``wall_margin_m``; the distance is convex
    over the floor rectangle, so its maximum sits at a corner.
    """
    normal = cfg.wall_normal()
    if normal is None:
        return float("inf")
    offsets = _floor_corners(cfg) - np.asarray(cfg.ris_center_m, dtype=float)
    return float(np.max(np.abs(offsets @ normal)))


def floor_point(cfg: ExperimentConfig, xy) -> np.ndarray:
    """The UE position (x, y, 0) at a floor point given from outside;
    :class:`ConfigError` unless the closed room box holds it."""
    ue = np.array([xy[0], xy[1], 0.0])
    _check_in_room(cfg, "UE floor point", ue[None])
    return ue


def bench_sizes(values) -> list[int]:
    """The subcarrier counts of ``bench`` as integers; :class:`ConfigError`
    unless each is a positive whole number and at least two differ, since the
    growth exponent is a line fitted through them."""
    for v in values:
        if not (float(v).is_integer() and v > 0):
            raise ConfigError(f"bench size {v:g} is not a positive integer")
    if len(set(values)) < 2:
        raise ConfigError("bench needs at least two distinct sizes")
    return [int(v) for v in values]


def apply_sweep_value(cfg: ExperimentConfig, variable: str, value: float) -> ExperimentConfig:
    """The checked config of one sweep point.

    ``K`` varies the tile count, ``L`` the frame budget, ``B`` the bandwidth
    (by scaling the subcarrier spacing at a fixed subcarrier count).  An
    unknown variable, a K or L that is not a whole number, and a point that
    :func:`check_config` rejects raise :class:`ConfigError`.
    """
    if variable in ("K", "L"):
        if not float(value).is_integer():
            raise ConfigError(f"{variable} = {value:g} is not an integer")
        field = "tile_count" if variable == "K" else "frames"
        return check_config(replace(cfg, **{field: int(value)}))
    if variable == "B":
        return check_config(replace(cfg, spacing_hz=float(value) / cfg.subcarriers))
    raise ConfigError(f"unknown sweep variable {variable!r} (use K, L or B)")


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
