"""Scene geometry: entity placement, tile element grids, and ground-truth delays.

The global frame is right-handed with the UE constrained to the ground plane
(z = 0).  A linear RIS is described by a :class:`RisLayout` and expanded by
:func:`build_scene` into per-tile element grids at half-wavelength spacing.
All objects are immutable after construction.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .constants import SPEED_OF_LIGHT


@dataclass(frozen=True)
class RisLayout:
    """Linear arrangement of RIS tiles.

    Attributes:
        tile_count: number of tiles K placed along ``axis``.
        tile_spacing: center-to-center distance between adjacent tiles (m).
        center: midpoint of the tile line (m).
        axis: unit vector of the tile alignment direction.
        elements_x / elements_z: element grid shape within one tile.
    """

    tile_count: int
    tile_spacing: float
    center: np.ndarray
    axis: np.ndarray
    elements_x: int = 4
    elements_z: int = 10

    def __post_init__(self):
        object.__setattr__(self, "center", np.asarray(self.center, dtype=float))
        object.__setattr__(self, "axis", np.asarray(self.axis, dtype=float))
        if self.tile_count < 1:
            raise ValueError("tile_count must be >= 1")
        if not self.tile_spacing > 0:
            raise ValueError("tile_spacing must be positive")
        if abs(np.linalg.norm(self.axis) - 1.0) > 1e-9:
            raise ValueError("axis must be a unit vector")
        if self.elements_x < 1 or self.elements_z < 1:
            raise ValueError("element grid counts must be >= 1")

    def tile_centers(self) -> np.ndarray:
        """(K, 3) tile centers, placed symmetrically about ``center``."""
        k = self.tile_count
        offsets = (np.arange(1, k + 1) - (k + 1) / 2.0) * self.tile_spacing
        return self.center[None, :] + offsets[:, None] * self.axis[None, :]


@dataclass(frozen=True)
class TilePose:
    """One RIS tile: its center and the positions of its M elements."""

    center: np.ndarray
    element_positions: np.ndarray  # (M, 3)
    m_x: int
    m_z: int

    def __post_init__(self):
        if self.element_positions.shape != (self.m_x * self.m_z, 3):
            raise ValueError("element_positions must have m_x*m_z rows")

    @property
    def n_elements(self) -> int:
        return self.m_x * self.m_z


@dataclass(frozen=True)
class Scene:
    """Placement of BS, UE and RIS tiles plus clock/phase offsets.

    ``p_ue`` must lie on the ground plane.  ``t0`` is the BS-UE clock offset
    added to every delay; ``phi0`` is the carrier phase offset of the
    backward (RIS-to-UE) link.
    """

    p_bs: np.ndarray
    p_ue: np.ndarray
    tiles: tuple[TilePose, ...]
    t0: float = 0.0
    phi0: float = 0.0
    ris_axis: np.ndarray = field(default_factory=lambda: np.array([1.0, 0.0, 0.0]))

    def __post_init__(self):
        object.__setattr__(self, "p_bs", np.asarray(self.p_bs, dtype=float))
        object.__setattr__(self, "p_ue", np.asarray(self.p_ue, dtype=float))
        object.__setattr__(self, "ris_axis", np.asarray(self.ris_axis, dtype=float))
        if abs(self.p_ue[2]) > 1e-12:
            raise ValueError("UE must lie on the ground plane (z = 0)")
        if len(self.tiles) < 1:
            raise ValueError("at least one tile required")
        centers = np.array([t.center for t in self.tiles])
        if len(self.tiles) > 1:
            d = np.linalg.norm(centers[:, None] - centers[None, :], axis=-1)
            if np.min(d[~np.eye(len(self.tiles), dtype=bool)]) < 1e-12:
                raise ValueError("tile centers must be distinct")

    @property
    def n_tiles(self) -> int:
        return len(self.tiles)

    @property
    def tile_centers(self) -> np.ndarray:
        """(K, 3) array of tile centers."""
        return np.array([t.center for t in self.tiles])

    def axis_coordinate(self, k: int) -> float:
        """Scalar position of tile ``k`` (1-based) along the RIS axis."""
        return float(np.dot(self.tiles[k - 1].center, self.ris_axis))


def _grid_directions(axis: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """In-plane directions of the element grid for a wall-mounted tile.

    The grid spans the tile alignment axis and the most-vertical direction
    orthogonal to it, i.e. the plane of the mounting wall.
    """
    up = np.array([0.0, 0.0, 1.0])
    v = up - np.dot(up, axis) * axis
    if np.linalg.norm(v) < 1e-9:  # axis is vertical; fall back to global x
        v = np.array([1.0, 0.0, 0.0]) - axis[0] * axis
    return axis, v / np.linalg.norm(v)


def build_scene(
    layout: RisLayout,
    p_bs,
    p_ue,
    t0: float = 0.0,
    phi0: float = 0.0,
    wavelength: float = SPEED_OF_LIGHT / 28e9,
) -> Scene:
    """Expand a tile layout into a full scene with element grids.

    Tile centers are placed symmetrically about ``layout.center`` along
    ``layout.axis``; each tile carries an ``elements_x`` by ``elements_z``
    rectangular grid at half-wavelength spacing centered on the tile.
    """
    if wavelength <= 0:
        raise ValueError("wavelength must be positive")
    u, v = _grid_directions(layout.axis)
    half = wavelength / 2.0

    ix = (np.arange(1, layout.elements_x + 1) - (layout.elements_x + 1) / 2.0) * half
    iz = (np.arange(1, layout.elements_z + 1) - (layout.elements_z + 1) / 2.0) * half
    # local element offsets, x-index fastest
    local = ix[None, :, None] * u[None, None, :] + iz[:, None, None] * v[None, None, :]
    local = local.reshape(-1, 3)

    tiles = []
    for center in layout.tile_centers():
        tiles.append(
            TilePose(
                center=center,
                element_positions=center[None, :] + local,
                m_x=layout.elements_x,
                m_z=layout.elements_z,
            )
        )
    return Scene(
        p_bs=np.asarray(p_bs, dtype=float),
        p_ue=np.asarray(p_ue, dtype=float),
        tiles=tuple(tiles),
        t0=t0,
        phi0=phi0,
        ris_axis=layout.axis,
    )


def toa(scene: Scene, k: int) -> float:
    """Arrival time of the path BS -> tile k -> UE, including the clock offset.

    ``k`` is 1-based.
    """
    if not 1 <= k <= scene.n_tiles:
        raise IndexError(f"tile index {k} out of range 1..{scene.n_tiles}")
    center = scene.tiles[k - 1].center
    d = np.linalg.norm(scene.p_bs - center) + np.linalg.norm(scene.p_ue - center)
    return d / SPEED_OF_LIGHT + scene.t0


def toa_vector(scene: Scene) -> np.ndarray:
    """Ground-truth ToAs for all tiles as a (K,) array."""
    centers = scene.tile_centers
    d = np.linalg.norm(scene.p_bs - centers, axis=1) + np.linalg.norm(
        scene.p_ue - centers, axis=1
    )
    return d / SPEED_OF_LIGHT + scene.t0
