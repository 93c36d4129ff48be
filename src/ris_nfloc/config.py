"""ExperimentConfig, its INI file, and every check that decides if it can run.

The file has flat sections [scene], [waveform], [assignment], [multipath],
[experiment]; physical keys carry their unit in the name, and an unknown
section or key is a configuration error so typos fail loudly.
:func:`check_config`, :func:`apply_sweep_value`, :func:`floor_point` and
:func:`heatmap_cells` reject what no trial can run with before the first
trial; :func:`read_config` gives a file's values unchecked, so command-line
flags replace them before the one check, and :func:`parse_numbers` parses
every comma-separated list.  Only the modules a trial is built from are
imported here (the config builds its :mod:`~ris_nfloc.deployment`), never
the harness that runs the trials.
"""

from __future__ import annotations

import configparser
import math
from dataclasses import dataclass, fields, replace
from functools import cached_property

import numpy as np

from .channel import MultipathConfig
from .constants import SPEED_OF_LIGHT
from .deployment import Deployment, build_deployment
from .geometry import RisLayout
from .psp import PspAssignment, assign
from .waveform import WaveformConfig


class ConfigError(ValueError):
    pass


def _db_to_ratio(db: float) -> float:
    """The power ratio of a value in dB; inf where it overflows a float."""
    try:
        return 10.0 ** (db / 10.0)
    except OverflowError:
        return float("inf")


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
        """A trial's waveform in units of the reference path amplitude: P = 1
        and N0/(P*gain_reference**2), formed in dB, as N0."""
        return WaveformConfig(
            n_subcarriers=self.subcarriers,
            spacing=self.spacing_hz,
            carrier=self.carrier_hz,
            tx_power=1.0,
            noise_psd=_db_to_ratio(
                self.noise_dbm - self.power_dbm - 20.0 * math.log10(self.gain_reference)
            ),
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

    def wall_normal(self) -> np.ndarray:
        """Horizontal unit normal of the RIS wall.

        Raises the ValueError of :meth:`layout` for a layout it rejects, a
        vertical RIS axis included.  It also raises unless the floor reaches
        beyond ``wall_margin_m`` on exactly one side of the wall plane: on
        both sides, a UE and its mirror image across the plane give the same
        arrivals; on neither, no UE position is left to draw.
        """
        normal = np.cross(self.layout().axis, [0.0, 0.0, 1.0])
        normal = normal / np.linalg.norm(normal)
        # signed distances of the floor corners from the RIS wall plane
        offsets = (_floor_corners(self) - np.asarray(self.ris_center_m)) @ normal
        margin = self.wall_margin_m
        if offsets.max() > margin and offsets.min() < -margin:
            raise ValueError(
                f"ris_center_m = {_point(self.ris_center_m)} puts the RIS "
                f"wall plane across the floor: the floor reaches {offsets.max():g} m "
                f"from it on one side and {-offsets.min():g} m on the other, both "
                f"beyond wall_margin_m = {margin:g}, so a UE and its mirror image "
                "across the plane give the same arrivals"
            )
        clearance = float(np.max(np.abs(offsets)))
        if clearance <= margin:
            raise ValueError(
                f"wall_margin_m = {margin:g} leaves no floor "
                f"position for the UE: the floor reaches {clearance:g} m from the "
                "RIS wall at most"
            )
        return normal

    @cached_property
    def deployment(self) -> Deployment:
        """What this config fixes for every trial, built on first use.

        The config is frozen, so the deployment cannot go stale; a copy made
        by ``replace`` builds its own.
        """
        return build_deployment(
            self.layout(),
            self.bs_position_m,
            self.wavelength_m,
            self.waveform_config(),
            self.wall_normal(),
            self.room,
        )


def parse_numbers(text: str) -> tuple:
    """The numbers of a comma-separated list, in a config file or on the
    command line; :class:`ConfigError` names the text otherwise."""
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
    ("scene", "ris_center_m"): ("ris_center_m", parse_numbers),
    ("scene", "ris_axis"): ("ris_axis", parse_numbers),
    ("scene", "elements_x"): ("elements_x", int),
    ("scene", "elements_z"): ("elements_z", int),
    ("scene", "bs_position_m"): ("bs_position_m", parse_numbers),
    ("scene", "room_min_m"): ("room_min_m", parse_numbers),
    ("scene", "room_max_m"): ("room_max_m", parse_numbers),
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
    """The config of :func:`read_config`, checked by :func:`check_config`."""
    return check_config(read_config(path))


def read_config(path) -> ExperimentConfig:
    """Defaults, overridden from the INI file at ``path`` unless it is None,
    not yet checked, so that command-line flags can replace file values
    before the one check.  An unknown or unparsable key, and a file
    configparser cannot parse (a key before any section, a line without
    ``=``, a repeated section or key), are a :class:`ConfigError`."""
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
    return ExperimentConfig(**overrides)


def check_config(cfg: ExperimentConfig) -> ExperimentConfig:
    """Reject field combinations no trial can run with; returns ``cfg``.

    Every float and point field must be finite.  A run needs at least one
    trial, at least two subcarriers (one subcarrier gives every slope column
    a flat delay profile without a peak), a non-negative seed, an
    oversampling factor of at least 1, a non-negative clock uncertainty, a
    positive ``gain_reference``, a positive ``peak_threshold`` (the
    admissibility floor in column medians) and a non-negative
    ``resolvability_margin`` (0 labels every detected shared group).  The RIS
    layout, the waveform and the multipath model must pass the constructors
    a trial builds them with;
    :class:`~ris_nfloc.geometry.RisLayout` rejects a vertical RIS axis.  The
    closed room box must contain the BS, every RIS tile center and the floor
    rectangle at z = 0 that UEs are drawn on; the BS must sit at least
    1e-12 m from every tile center.  The RIS wall must pass
    :meth:`ExperimentConfig.wall_normal`, which an unchecked config meets on
    its first trial: the floor reaches beyond ``wall_margin_m`` on exactly
    one side of the wall plane.  The slope
    assignment must exist for (tile_count, frames, exclusive_tiles) and give
    at least three exclusive-slope tiles, and neither they, the tile
    centers nor a trial's (frames, oversampling * subcarriers) float64
    spectrum map may be too large to allocate.
    The wavelength ``c / carrier_hz``, the largest multipath phase
    ``2*pi*excess_max_m / wavelength`` and the multipath power ratio
    ``10**(power_rel_db / 10)`` must be finite, and so must the delay
    arithmetic of a trial: the square of the delay-period range
    ``c / spacing_hz``, against which the position solve squares range
    differences; the error bound's delay information ``8*pi**2*B**2`` per
    unit SNR (B the bandwidth); and the largest clock-offset phase
    ``2*pi*(carrier_hz + B/2)*clock_uncertainty_s`` of the frame synthesis.
    A trial runs in units of the reference path amplitude: its cascade gains
    have unit mean magnitude and its transmit power is 1, so the powers and
    ``gain_reference`` enter only as the noise ratio
    ``nu = N0/(P*gain_reference**2)`` of
    :meth:`ExperimentConfig.waveform_config`.  It must be positive, or the
    frames would carry no noise and every SNR would divide by zero, and
    ``L*nu`` must be finite: the receiver noise has variance ``nu/N`` per
    frame cell, a slope column sums L frames and a spectrum cell N
    slope-column samples, so ``L*nu`` is the squared noise scale of a cell
    and the scale of the noise in the matrix pencil's Gram matrix.  No gain
    exceeds K, so no path's SNR exceeds ``L*K**2/(N*nu)``, and the delay
    information times that SNR must be finite too.  A spectral peak is at
    most ``L*K``, which no float overflows.
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
        ("peak_threshold", cfg.peak_threshold > 0, "must be positive"),
        ("resolvability_margin", cfg.resolvability_margin >= 0, "must not be negative"),
    ):
        if not holds:
            raise ConfigError(f"{_KEYS[field]} = {getattr(cfg, field):g} {rule}")
    points = ("ris_center_m", "ris_axis", "bs_position_m", "room_min_m", "room_max_m")
    for field in points:
        if len(getattr(cfg, field)) != 3:
            raise ConfigError(f"[scene] {field} needs 3 components (x, y, z)")
    try:
        centers = cfg.layout().tile_centers()
    except ValueError as exc:
        raise ConfigError(f"bad RIS layout in [scene]: {exc}") from None
    except MemoryError as exc:
        raise ConfigError(f"[scene] tile_count = {cfg.tile_count}: {exc}") from None
    _check_in_room(cfg, "[scene] bs_position_m", np.atleast_2d(cfg.bs_position_m))
    tiles = f"[scene] RIS tile {{}} of {cfg.tile_count}"
    _check_in_room(cfg, tiles, centers)
    bs_legs = np.linalg.norm(np.asarray(cfg.bs_position_m) - centers, axis=1)
    if np.min(bs_legs) < 1e-12:
        raise ConfigError(
            f"[scene] bs_position_m = {_point(cfg.bs_position_m)} coincides with "
            f"RIS tile {int(np.argmin(bs_legs)) + 1} of {cfg.tile_count}"
        )
    _check_in_room(cfg, "[scene] floor corner {} (z = 0)", _floor_corners(cfg))
    try:
        cfg.wall_normal()
    except ValueError as exc:
        raise ConfigError(f"[scene] {exc}") from None
    try:
        assignment = cfg.assignment()
    except (ValueError, MemoryError) as exc:
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
    try:
        np.empty((cfg.frames, cfg.oversampling * cfg.subcarriers))
    except (ValueError, MemoryError) as exc:  # numpy: "array is too big"
        raise ConfigError(
            f"[experiment] oversampling = {cfg.oversampling} with [waveform] "
            f"subcarriers = {cfg.subcarriers}, [assignment] frames = {cfg.frames} "
            f"gives a spectrum map that cannot be allocated: {exc}"
        ) from None
    nu = cfg.waveform_config().noise_psd  # N0/(P*gain_reference**2)
    if not (nu > 0 and np.isfinite(cfg.frames * nu)):
        raise ConfigError(
            f"{_named(cfg, ('power_dbm', 'noise_dbm', 'gain_reference'))} gives the "
            f"noise ratio N0/(P*gain_reference**2) = {nu:g}; it must be positive "
            "and L times it finite"
        )
    # the constructors above made carrier_hz, spacing_hz and excess_max_m
    # positive; the products below overflow to inf, never raise
    lam = cfg.wavelength_m
    period_m = SPEED_OF_LIGHT / cfg.spacing_hz  # range of one delay period
    band = cfg.bandwidth_hz
    band_edge = cfg.carrier_hz + band / 2.0
    info = 8.0 * np.pi**2 * band * band  # delay information per unit SNR
    # the cascade gains have mean magnitude 1, so none exceeds K
    snr = cfg.frames * cfg.tile_count**2 / (cfg.subcarriers * nu)
    for keys, value, what in (
        (("carrier_hz",), lam, "wavelength c / carrier_hz"),
        (("multipath_excess_max_m",), 2.0 * np.pi * cfg.multipath_excess_max_m / lam,
         "multipath phase 2*pi*excess_max_m / wavelength"),
        (("multipath_power_db",), _db_to_ratio(cfg.multipath_power_db),
         "multipath power ratio 10**(power_rel_db / 10)"),
        (("spacing_hz",), period_m * period_m,
         "squared delay-period range (c / spacing_hz)**2"),
        (("spacing_hz",), info, "delay information 8*pi**2*B**2 per unit SNR"),
        (("clock_uncertainty_s",), 2.0 * np.pi * band_edge * cfg.clock_uncertainty_s,
         "clock-offset phase 2*pi*(carrier_hz + B/2)*clock_uncertainty_s"),
        (("gain_reference", "spacing_hz", "power_dbm", "noise_dbm"), info * snr,
         "delay information 8*pi**2*B**2*L*K**2/(N*nu), nu = N0/(P*gain_reference**2)"),
    ):
        if not np.isfinite(value):
            raise ConfigError(f"{_named(cfg, keys)} overflows the {what}")
    return cfg


def _named(cfg: ExperimentConfig, keys) -> str:
    """``key = value`` of the first field of ``keys``, then of the others."""
    first, *rest = (f"{_KEYS[f]} = {getattr(cfg, f):g}" for f in keys)
    return first + (" with " + ", ".join(rest) if rest else "")


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


def floor_point(cfg: ExperimentConfig, xy) -> np.ndarray:
    """The UE position (x, y, 0) at a floor point given from outside;
    :class:`ConfigError` unless ``xy`` has two coordinates and the closed
    room box holds the point."""
    if len(xy) != 2:
        raise ConfigError(f"UE floor point {_point(xy)} needs 2 coordinates (x, y)")
    ue = np.array([xy[0], xy[1], 0.0])
    _check_in_room(cfg, "UE floor point", ue[None])
    return ue


def heatmap_cells(cfg: ExperimentConfig, resolution_m: float) -> tuple:
    """The x and y cell centers of a floor grid with square cells of side
    ``resolution_m``; :class:`ConfigError` unless the resolution is positive
    and leaves at least one cell center on the floor."""
    lo = np.asarray(cfg.room_min_m, dtype=float)
    hi = np.asarray(cfg.room_max_m, dtype=float)
    first = lo[:2] + resolution_m / 2  # first cell center along x and y
    if not (resolution_m > 0 and np.all(first < hi[:2])):
        raise ConfigError(
            f"heatmap resolution {resolution_m:g} m must be positive and "
            f"leave a cell on the {hi[0] - lo[0]:g} x {hi[1] - lo[1]:g} m floor")
    return (np.arange(first[0], hi[0], resolution_m),
            np.arange(first[1], hi[1], resolution_m))


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


# whole-number sweep variables -> the ExperimentConfig field each sets
_COUNT_VARIABLES = {"K": "tile_count", "L": "frames", "K0": "exclusive_tiles"}

SWEEP_VARIABLES = (*_COUNT_VARIABLES, "B")


def apply_sweep_value(cfg: ExperimentConfig, variable: str, value: float) -> ExperimentConfig:
    """The checked config of one sweep point.

    ``K`` varies the tile count, ``L`` the frame budget, ``K0`` the number of
    exclusive-slope tiles, ``B`` the bandwidth (by scaling the subcarrier
    spacing at a fixed subcarrier count).  An unknown variable, a K, L or K0
    that is not a whole number, a K0 sweep where every tile has its own slope
    anyway, and a point that :func:`check_config` rejects raise
    :class:`ConfigError`.
    """
    if variable in _COUNT_VARIABLES:
        if not float(value).is_integer():
            raise ConfigError(f"{variable} = {value:g} is not an integer")
        if variable == "K0" and cfg.frames >= cfg.tile_count:
            raise ConfigError(
                f"K0 has no effect: [assignment] frames = {cfg.frames} >= "
                f"[scene] tile_count = {cfg.tile_count} gives every tile its own slope")
        return check_config(replace(cfg, **{_COUNT_VARIABLES[variable]: int(value)}))
    if variable == "B":
        return check_config(replace(cfg, spacing_hz=float(value) / cfg.subcarriers))
    raise ConfigError(f"unknown sweep variable {variable!r} (use K, L, K0 or B)")


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
