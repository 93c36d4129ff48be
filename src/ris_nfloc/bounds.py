"""Fisher information of the range-difference measurements and the PEB.

Each arrival-time difference against the reference tile contributes a rank-one
term weighted by the inverse delay-estimation variance, which itself follows
the classic inverse-bandwidth-squared law with the combined SNR of the two
paths involved.  The position error bound is the root trace of the inverse
information matrix; weakly observable axes (a collinear anchor line barely
constrains the normal plane) are reported through a restricted pseudo-inverse
together with the condition number.

SNR bookkeeping: the per-cell SNR of a demodulated symbol is
``P*|c_k|^2/(N*N0)`` and :func:`cascade_snrs` multiplies it by the
frame-coherent gain ``L`` only; the subcarrier aggregation is the
bandwidth-squared factor of :func:`toa_variance`.  The channel gains used here
are path-loss-normalized by the experiment harness (mean cascade magnitude
scaled to ``gain_reference``, 2.0 by default), which is disclosed wherever the
bound is reported; the nominal powers are meaningless against raw
double-bounce path loss.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .constants import SPEED_OF_LIGHT
from .geometry import Scene
from .waveform import WaveformConfig


@dataclass(frozen=True)
class FimResult:
    """Position information matrix and derived error bound."""

    fim: np.ndarray  # (3, 3)
    peb: float  # root trace of the full inverse; inf when rank deficient
    peb_observable: float  # restricted to the numerically observable subspace
    condition_number: float
    rank: int


def toa_variance(bandwidth: float, snr_k: float, snr_ref: float) -> float:
    """Delay-estimation variance of one range difference.

    Combines the two involved path SNRs harmonically; returns inf for a dead
    path rather than raising, so callers can mask unusable tiles.
    """
    if bandwidth <= 0:
        raise ValueError("bandwidth must be positive")
    if snr_k <= 0 or snr_ref <= 0:
        return float("inf")
    zeta = 1.0 / (1.0 / snr_k + 1.0 / snr_ref)
    return 1.0 / (8.0 * np.pi**2 * bandwidth**2 * zeta)


def cascade_snrs(cascade: np.ndarray, cfg: WaveformConfig) -> np.ndarray:
    """Per-tile SNR entering the delay variance model.

    Convention: the per-cell demodulated SNR ``P|c_k|^2/(N*N0)`` times the
    frame-coherent gain ``L``; the subcarrier aggregation is what the
    bandwidth-squared factor of :func:`toa_variance` models, so it is not
    double counted here.  This reproduces the reference bound level of the
    full-scale setup and is the disclosed bookkeeping wherever the bound is
    reported.
    """
    cell = (
        cfg.tx_power
        * np.abs(cascade) ** 2
        / (cfg.n_subcarriers * cfg.noise_psd)
    )
    return cell * cfg.l_frames


def tdoa_gradients(scene: Scene, k_ref: int) -> np.ndarray:
    """(K, 3) gradients of the arrival-time differences w.r.t. the position.

    Row k-1 holds the gradient for tile k; the reference row is zero.
    """
    centers = scene.tile_centers
    p = scene.p_ue
    d = np.linalg.norm(p - centers, axis=1)
    if np.min(d) < 1e-12:
        raise ValueError("UE coincides with a tile")
    units = (p[None, :] - centers) / d[:, None]
    grads = (units - units[k_ref - 1]) / SPEED_OF_LIGHT
    grads[k_ref - 1] = 0.0
    return grads


def fim(
    scene: Scene,
    snrs: np.ndarray,
    bandwidth: float,
    k_ref: int,
    rcond: float = 1e-10,
) -> FimResult:
    """Position Fisher information from all tile range differences.

    Clock and phase offsets are treated as known (optimistic bound).  Tiles
    with non-positive SNR contribute nothing.  ``peb`` is finite only when
    all three axes are observable above ``rcond`` relative to the largest
    eigenvalue; ``peb_observable`` always reports the restricted bound.
    """
    k = scene.n_tiles
    if k < 2:
        raise ValueError("need at least 2 tiles")
    if not 1 <= k_ref <= k:
        raise IndexError("reference tile out of range")
    snrs = np.asarray(snrs, dtype=float)
    grads = tdoa_gradients(scene, k_ref)

    j = np.zeros((3, 3))
    for tile in range(1, k + 1):
        if tile == k_ref:
            continue
        var = toa_variance(bandwidth, snrs[tile - 1], snrs[k_ref - 1])
        if not np.isfinite(var) or var <= 0:
            continue
        g = grads[tile - 1]
        j += np.outer(g, g) / var

    eigvals, eigvecs = np.linalg.eigh(j)
    top = float(eigvals[-1]) if eigvals[-1] > 0 else 0.0
    observable = eigvals > rcond * top if top > 0 else np.zeros(3, dtype=bool)
    rank = int(np.count_nonzero(observable))
    cond = float(eigvals[-1] / eigvals[0]) if eigvals[0] > 0 else float("inf")
    if rank == 0:
        peb_obs = float("inf")
    else:
        peb_obs = float(np.sqrt(np.sum(1.0 / eigvals[observable])))
    peb = peb_obs if rank == 3 else float("inf")
    return FimResult(
        fim=j,
        peb=peb,
        peb_observable=peb_obs,
        condition_number=cond,
        rank=rank,
    )
