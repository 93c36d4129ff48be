"""Scene geometry: entity placement, tile element grids, and ground-truth delays.

The global frame is right-handed with the UE constrained to the ground plane
(z = 0).  A linear RIS is described by a :class:`RisLayout` and expanded by
:func:`tile_elements` into two arrays: the tile centers (K, 3) and the element
positions (K, M, 3), each tile a grid at half-wavelength spacing.
:func:`build_scene` places them with a BS and a UE; an experiment's trials
share one expansion, held by its :mod:`ris_nfloc.deployment`.  Tile k sits
at an offset along the RIS axis that increases with k, so tile order is the
order along the axis and a scene keeps no axis.  All objects are immutable
after construction.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .constants import SPEED_OF_LIGHT


@dataclass(frozen=True)
class RisLayout:
    """Linear arrangement of RIS tiles.

    Attributes:
        tile_count: number of tiles K placed along ``axis``.
        tile_spacing: center-to-center distance between adjacent tiles (m).
        center: midpoint of the tile line (m).
        axis: unit vector of the tile alignment direction, never vertical.
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
        # adjacent centers are tile_spacing apart, the smallest gap of the line
        if self.tile_count > 1 and self.tile_spacing < 1e-12:
            raise ValueError("tile centers must be distinct (tile_spacing below 1e-12 m)")
        if abs(np.linalg.norm(self.axis) - 1.0) > 1e-9:
            raise ValueError("axis must be a unit vector")
        if np.linalg.norm(self.axis[:2]) < 1e-9:
            raise ValueError(
                f"axis = ({', '.join(f'{a:g}' for a in self.axis)}) is vertical: the "
                "RIS has no wall, and its arrivals fix only the UE's distance "
                "from one floor point")
        if self.elements_x < 1 or self.elements_z < 1:
            raise ValueError("element grid counts must be >= 1")

    def tile_centers(self) -> np.ndarray:
        """(K, 3) tile centers, placed symmetrically about ``center``."""
        k = self.tile_count
        offsets = (np.arange(1, k + 1) - (k + 1) / 2.0) * self.tile_spacing
        return self.center[None, :] + offsets[:, None] * self.axis[None, :]


@dataclass(frozen=True)
class Scene:
    """Placement of BS, UE and RIS tiles plus clock/phase offsets.

    The tiles are two arrays: ``tile_centers`` (K, 3) and ``elements``
    (K, M, 3), the element positions of each tile.  ``p_ue`` must lie on the
    ground plane.  ``t0`` is the BS-UE clock offset added to every delay;
    ``phi0`` is the carrier phase offset of the backward (RIS-to-UE) link.
    """

    p_bs: np.ndarray
    p_ue: np.ndarray
    tile_centers: np.ndarray
    elements: np.ndarray
    t0: float = 0.0
    phi0: float = 0.0

    def __post_init__(self):
        for name in ("p_bs", "p_ue", "tile_centers", "elements"):
            object.__setattr__(self, name, np.asarray(getattr(self, name), dtype=float))
        if abs(self.p_ue[2]) > 1e-12:
            raise ValueError("UE must lie on the ground plane (z = 0)")
        centers, elements = self.tile_centers, self.elements
        if centers.ndim != 2 or centers.shape[1] != 3 or len(centers) < 1:
            raise ValueError("tile_centers must be a (K, 3) array with K >= 1")
        if elements.ndim != 3 or elements.shape[::2] != (len(centers), 3):
            raise ValueError("elements must be a (K, M, 3) array matching tile_centers")

    @property
    def n_tiles(self) -> int:
        return len(self.tile_centers)


def _grid_directions(axis: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """In-plane directions of the element grid for a wall-mounted tile.

    The grid spans the tile alignment axis (never vertical) and the
    most-vertical direction orthogonal to it, i.e. the plane of the wall.
    """
    up = np.array([0.0, 0.0, 1.0])
    v = up - np.dot(up, axis) * axis
    return axis, v / np.linalg.norm(v)


def tile_elements(layout: RisLayout, wavelength: float) -> tuple[np.ndarray, np.ndarray]:
    """The tile centers (K, 3) and element positions (K, M, 3) of a layout.

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

    centers = layout.tile_centers()
    return centers, centers[:, None, :] + local


def build_scene(
    layout: RisLayout,
    p_bs,
    p_ue,
    t0: float = 0.0,
    phi0: float = 0.0,
    wavelength: float = SPEED_OF_LIGHT / 28e9,
) -> Scene:
    """Expand a tile layout into a full scene with element grids
    (:func:`tile_elements`)."""
    centers, elements = tile_elements(layout, wavelength)
    return Scene(
        p_bs=p_bs,
        p_ue=p_ue,
        tile_centers=centers,
        elements=elements,
        t0=t0,
        phi0=phi0,
    )


def distances(offsets: np.ndarray) -> np.ndarray:
    """Euclidean lengths along the last axis of real ``offsets``.

    The expression ``np.linalg.norm(offsets, axis=-1)`` evaluates, bit for
    bit, without that function's Python-level argument handling, which
    costs more than the arithmetic on a trial's few dozen rows.
    """
    return np.sqrt(np.add.reduce(offsets * offsets, axis=-1))


def toa_vector(scene: Scene) -> np.ndarray:
    """Ground-truth ToAs for all tiles as a (K,) array."""
    centers = scene.tile_centers
    d = distances(scene.p_bs - centers) + distances(scene.p_ue - centers)
    return d / SPEED_OF_LIGHT + scene.t0
