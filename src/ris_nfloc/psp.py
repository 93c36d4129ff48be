"""Phase-shift-profile codebook: the per-tile modulation slopes.

Each tile modulates the reflected signal with a linear-in-frame phase ramp
``theta_k(frame) = 2*pi*beta_k*frame``.  With ``L`` frames there are exactly
``L`` usable slopes ``i/L``; when tiles outnumber slopes, a small set of
anchor tiles keeps exclusive slopes (they bootstrap the position fix) and the
rest share the remaining slopes cyclically, spreading same-slope tiles as far
apart as possible.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class PspAssignment:
    """Slope assignment for all tiles.

    Attributes:
        l_frames: number of frames L (equals the number of usable slopes).
        beta: per-tile slope, 1-based tile k at ``beta[k-1]``, values in (0, 1].
        k0_set: tile indices holding exclusive slopes, in slope order.
        groups: slope index i -> tuple of tiles sharing slope i/L (ascending
            tile index).  Covers every slope in use, singletons included.
        k0_size: number of exclusive-slope tiles.
    """

    l_frames: int
    beta: np.ndarray
    k0_set: tuple[int, ...]
    groups: dict[int, tuple[int, ...]]
    k0_size: int

    @property
    def n_tiles(self) -> int:
        return len(self.beta)

    @property
    def max_dod(self) -> int:
        """Largest number of tiles sharing one slope."""
        return max(len(g) for g in self.groups.values())


def psp_list(l_frames: int) -> np.ndarray:
    """The usable slopes (1/L, 2/L, ..., L/L) for an L-frame transmission."""
    if l_frames < 1:
        raise ValueError("l_frames must be >= 1")
    return np.arange(1, l_frames + 1) / float(l_frames)


def assign(k_tiles: int, l_frames: int, k0_size: int = 4) -> PspAssignment:
    """Assign slopes to tiles under a sufficient or insufficient frame budget.

    With ``l_frames >= k_tiles`` every tile receives an exclusive slope (the
    last ``k_tiles`` entries of the slope list, preserving the convention that
    exclusive slopes sit at the top).  Otherwise ``k0_size`` evenly spread
    tiles take the top slopes and the remaining tiles cycle through
    ``alpha(1)..alpha(L-K0)`` in ascending tile order.  The anchors' spread
    needs ``k0_size >= 2``; the bootstrap's need for three anchors is a
    config check (:func:`ris_nfloc.config.check_config`).
    """
    if k_tiles < 1:
        raise ValueError("k_tiles must be >= 1")
    if l_frames < 1:
        raise ValueError("l_frames must be >= 1")
    alphas = psp_list(l_frames)
    beta = np.zeros(k_tiles)

    if l_frames >= k_tiles:
        # sufficient budget: one exclusive slope per tile, all groups singleton
        for k in range(1, k_tiles + 1):
            beta[k - 1] = alphas[l_frames - k_tiles + k - 1]
        k0_set = tuple(range(1, k_tiles + 1))
        groups = {
            l_frames - k_tiles + k: (k,) for k in range(1, k_tiles + 1)
        }
        return PspAssignment(
            l_frames=l_frames,
            beta=beta,
            k0_set=k0_set,
            groups=groups,
            k0_size=k_tiles,
        )

    if k0_size < 2:
        raise ValueError("k0_size must be >= 2")
    if l_frames <= k0_size:
        raise ValueError("need l_frames > k0_size when tiles outnumber slopes")

    # evenly spread anchors, endpoints included
    k0_set = tuple(
        1 + (j * (k_tiles - 1)) // (k0_size - 1) for j in range(k0_size)
    )
    if len(set(k0_set)) != k0_size:
        raise ValueError("k0_size too large for this tile count")
    for j, k in enumerate(k0_set):
        beta[k - 1] = alphas[l_frames - k0_size + j]

    shared = l_frames - k0_size
    groups: dict[int, list[int]] = {i: [] for i in range(1, shared + 1)}
    slot = 0
    for k in range(1, k_tiles + 1):
        if k in k0_set:
            continue
        i = slot % shared + 1
        beta[k - 1] = alphas[i - 1]
        groups[i].append(k)
        slot += 1
    out_groups: dict[int, tuple[int, ...]] = {
        i: tuple(g) for i, g in groups.items() if g
    }
    for j, k in enumerate(k0_set):
        out_groups[l_frames - k0_size + j + 1] = (k,)
    return PspAssignment(
        l_frames=l_frames,
        beta=beta,
        k0_set=k0_set,
        groups=out_groups,
        k0_size=k0_size,
    )
