"""Cascade channel synthesis: per-element forward/backward coefficients.

The forward link (BS to RIS element) and backward link (RIS element to UE)
each carry a deterministic direct component plus an optional stochastic
multipath sum.  The direct component attenuates with the tile-center distance
while its phase tracks the exact element position.  Each multipath component
travels the direct element distance plus a per-tile excess length, so the
multipath enters as one complex gain per tile on the direct element phases.
The per-tile cascade gain is the inner product of the two element vectors.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .geometry import Scene


@dataclass(frozen=True)
class MultipathConfig:
    """Stochastic multipath model shared by forward and backward links.

    Each of ``j_paths`` extra paths gets a circular complex Gaussian amplitude
    whose mean power sits ``power_rel_db`` below the direct component of its
    link, and an excess propagation length drawn uniformly from
    [``excess_min_m``, ``excess_max_m``].  Draws are independent per tile and
    per link direction; the model holds no seed, since each trial draws its
    own realization (:func:`realize_channel`).
    """

    j_paths: int = 3
    power_rel_db: float = -15.0
    excess_min_m: float = 0.5
    excess_max_m: float = 5.0

    def __post_init__(self):
        if self.j_paths < 0:
            raise ValueError("j_paths must be >= 0")
        if self.excess_min_m <= 0 or self.excess_max_m < self.excess_min_m:
            raise ValueError("excess delays must be positive and ordered")


def forward_direct(scene: Scene, wavelength: float, k: int, m: int) -> complex:
    """Direct BS-to-element coefficient for tile ``k``, element ``m`` (1-based)."""
    d_center = np.linalg.norm(scene.p_bs - scene.tile_centers[k - 1])
    if d_center < 1e-12:
        raise ValueError("BS coincides with tile center")
    d_elem = np.linalg.norm(scene.p_bs - scene.elements[k - 1, m - 1])
    return (
        wavelength
        / (4.0 * np.pi * d_center)
        * np.exp(-2j * np.pi / wavelength * d_elem)
    )


def backward_direct(scene: Scene, wavelength: float, k: int, m: int) -> complex:
    """Direct element-to-UE coefficient; carries the phase offset ``phi0``."""
    d_center = np.linalg.norm(scene.p_ue - scene.tile_centers[k - 1])
    if d_center < 1e-12:
        raise ValueError("UE coincides with tile center")
    d_elem = np.linalg.norm(scene.p_ue - scene.elements[k - 1, m - 1])
    return (
        wavelength
        / (4.0 * np.pi * d_center)
        * np.exp(-2j * np.pi / wavelength * d_elem + 1j * scene.phi0)
    )


def direct_link(
    endpoint: np.ndarray,
    elements: np.ndarray,
    centers: np.ndarray,
    wavelength: float,
    extra_phase: float = 0.0,
) -> tuple[np.ndarray, np.ndarray]:
    """Direct part of one link direction: the (K,) tile-center distances,
    which set the path loss, and the (K, M) element phasors."""
    sq = endpoint - elements  # (K, M, 3)
    sq *= sq
    # (x² + y²) + z² is the order np.linalg.norm sums in, so the distances
    # stay bit for bit; its reduce over a length-3 axis took twice as long
    d_elem = np.sqrt((sq[..., 0] + sq[..., 1]) + sq[..., 2])  # (K, M)
    legs = np.linalg.norm(endpoint[None, :] - centers, axis=-1)  # (K,)
    if np.min(legs) < 1e-12:
        raise ValueError("link endpoint coincides with a tile center")
    return legs, np.exp(-2j * np.pi / wavelength * d_elem + 1j * extra_phase)


def _link_matrix(
    direct: tuple[np.ndarray, np.ndarray],
    wavelength: float,
    mp: MultipathConfig,
    rng: np.random.Generator,
) -> np.ndarray:
    """(K, M) coefficients of one link direction, direct plus multipath.

    Path j of tile k reaches element m over d_km + e_kj, so the multipath sum
    factors into the direct element phasor times one complex gain per tile:
    exp(-j2pi d_km/lambda + j phi) * (mag_k + sum_j eps_kj exp(-j2pi e_kj/lambda)).
    """
    legs, phasor = direct
    mag = wavelength / (4.0 * np.pi * legs)
    k = len(legs)
    sigma = mag * 10.0 ** (mp.power_rel_db / 20.0)  # per-path amplitude scale
    eps = (
        rng.standard_normal((k, mp.j_paths)) + 1j * rng.standard_normal((k, mp.j_paths))
    ) / np.sqrt(2.0)
    eps *= sigma[:, None]
    excess = rng.uniform(mp.excess_min_m, mp.excess_max_m, size=(k, mp.j_paths))
    multipath = np.sum(eps * np.exp(-2j * np.pi / wavelength * excess), axis=1)  # (K,)
    return (mag + multipath)[:, None] * phasor


def realize_channel(
    scene: Scene,
    wavelength: float,
    mp: MultipathConfig,
    forward: tuple[np.ndarray, np.ndarray],
    seed: int,
) -> np.ndarray:
    """Draw forward/backward element channels; return the (K,) complex
    per-tile cascade gains, the row-wise inner products of the two.

    With ``j_paths=0`` the channels are the pure direct components and the
    realization is deterministic.  Otherwise the multipath draws of the two
    directions are independent, drawn from ``seed``.  ``forward`` is the
    BS link's :func:`direct_link`, which depends on the deployment only; a
    deployment holds it.
    """
    rng = np.random.default_rng(seed)
    elements, centers = scene.elements, scene.tile_centers
    forward = _link_matrix(forward, wavelength, mp, rng)
    backward = _link_matrix(
        direct_link(scene.p_ue, elements, centers, wavelength, scene.phi0),
        wavelength, mp, rng,
    )
    return np.einsum("km,km->k", backward, forward)
