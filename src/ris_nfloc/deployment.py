"""What an experiment config fixes: the deployment every trial shares.

In a Monte Carlo run the RIS tiles, their element grids, the BS, the
waveform and the room stay put; a trial adds only the UE position, the
clock and phase offsets and its random draws.  A :class:`Deployment` holds
the fixed part, computed once per config
(:attr:`ris_nfloc.config.ExperimentConfig.deployment`): the tile arrays, the
BS legs and the forward (BS-to-element) direct link, the waveform config,
the RIS center and the horizontal normal of the RIS wall (a checked config
puts the UE on one side of it), and the position solver's seed lattice of
the room with its lattice-to-tile distance table.  Every array is computed
by the function that computed it per trial before, so the trials' numbers
do not change.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .channel import direct_link
from .geometry import RisLayout, Scene, tile_elements
from .tdoa import SeedLattice, seed_lattice
from .waveform import WaveformConfig


@dataclass(frozen=True)
class Deployment:
    """The fixed part of every trial of one config.

    ``bs_legs`` (K,) are the tile-center distances ``|bs - tile|`` and
    ``forward_phasor`` (K, M) the BS-to-element phasors of
    :func:`ris_nfloc.channel.direct_link`; ``lattice`` is the seed lattice
    of the room, which it records, with its (P, K) distance table.
    """

    p_bs: np.ndarray  # (3,)
    tile_centers: np.ndarray  # (K, 3)
    elements: np.ndarray  # (K, M, 3)
    ris_center: np.ndarray  # (3,)
    wavelength: float
    bs_legs: np.ndarray  # (K,)
    forward_phasor: np.ndarray  # (K, M)
    waveform: WaveformConfig
    wall_normal: np.ndarray  # (3,) horizontal
    lattice: SeedLattice

    @property
    def forward(self) -> tuple[np.ndarray, np.ndarray]:
        """The forward link's direct part, as ``realize_channel`` takes it."""
        return self.bs_legs, self.forward_phasor

    def scene(self, p_ue, t0: float, phi0: float) -> Scene:
        """The scene of one trial: this deployment with a UE and its offsets."""
        return Scene(
            p_bs=self.p_bs,
            p_ue=p_ue,
            tile_centers=self.tile_centers,
            elements=self.elements,
            t0=t0,
            phi0=phi0,
        )


def build_deployment(
    layout: RisLayout,
    p_bs,
    wavelength: float,
    waveform: WaveformConfig,
    wall_normal: np.ndarray,
    room,
) -> Deployment:
    """The deployment of ``layout`` with a BS at ``p_bs`` in ``room``, the
    ``(min_xyz, max_xyz)`` box.  Raises ValueError when the BS sits on a
    tile center."""
    p_bs = np.asarray(p_bs, dtype=float)
    centers, elements = tile_elements(layout, wavelength)
    bs_legs, forward_phasor = direct_link(p_bs, elements, centers, wavelength)
    return Deployment(
        p_bs=p_bs,
        tile_centers=centers,
        elements=elements,
        ris_center=layout.center,
        wavelength=wavelength,
        bs_legs=bs_legs,
        forward_phasor=forward_phasor,
        waveform=waveform,
        wall_normal=wall_normal,
        lattice=seed_lattice(room, centers),
    )
