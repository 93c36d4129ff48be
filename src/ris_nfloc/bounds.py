"""Fisher information of the range-difference measurements and the PEB.

Each arrival-time difference against the reference tile contributes a rank-one
term weighted by the inverse delay-estimation variance, which itself follows
the classic inverse-bandwidth-squared law with the combined SNR of the two
paths involved.  The position error bound is the root trace of the inverse
information matrix; weakly observable axes (a collinear anchor line barely
constrains the normal plane) are reported through a restricted pseudo-inverse
together with the condition number.

SNR bookkeeping: a trial runs in units of the reference path amplitude, so
the per-cell SNR of a demodulated symbol is ``|c_k|^2/(N*nu)``, with the
channel gains path-loss-normalized by the experiment harness to unit mean
magnitude and nu the config's noise ratio 10**(noise_ratio_db/10), which is
disclosed wherever the bound is reported; the nominal powers are
meaningless against raw double-bounce path loss.  :func:`cascade_snrs`
multiplies that SNR by the frame-coherent gain ``L`` only; the subcarrier
aggregation is the bandwidth-squared factor of :func:`toa_variance`.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .constants import SPEED_OF_LIGHT
from .geometry import Scene, distances
from .waveform import WaveformConfig

_RCOND = 1e-10  # observable eigenvalue floor, relative to the largest


@dataclass(frozen=True)
class FimResult:
    """Position information matrix and derived error bound."""

    fim: np.ndarray  # (3, 3)
    peb_observable: float  # restricted to the numerically observable subspace
    condition_number: float
    rank: int

    @property
    def peb(self) -> float:
        """Root trace of the full inverse; inf when rank deficient."""
        return self.peb_observable if self.rank == 3 else float("inf")


def toa_variance(bandwidth: float, snr_k, snr_ref):
    """Delay-estimation variance of one range difference, or of an array of them.

    Combines the two involved path SNRs harmonically; returns inf for a dead
    path rather than raising, so callers can mask unusable tiles.  The SNRs
    broadcast against each other; scalar SNRs give a scalar.
    """
    if bandwidth <= 0:
        raise ValueError("bandwidth must be positive")
    snr_k = np.asarray(snr_k, dtype=float)
    snr_ref = np.asarray(snr_ref, dtype=float)
    with np.errstate(divide="ignore", invalid="ignore"):
        zeta = 1.0 / (1.0 / snr_k + 1.0 / snr_ref)
        var = 1.0 / (8.0 * np.pi**2 * bandwidth**2 * zeta)
    return np.where((snr_k <= 0) | (snr_ref <= 0), np.inf, var)[()]


def cascade_snrs(cascade: np.ndarray, cfg: WaveformConfig) -> np.ndarray:
    """Per-tile SNR entering the delay variance model.

    Convention: the per-cell demodulated SNR ``|c_k|^2/(N*nu)``, nu the
    waveform's ``noise_ratio``, times the frame-coherent gain ``L``; the
    subcarrier aggregation is what the bandwidth-squared factor of
    :func:`toa_variance` models, so it is not double counted here.  This reproduces the reference bound level of the
    full-scale setup and is the disclosed bookkeeping wherever the bound is
    reported.
    """
    cell = np.abs(cascade) ** 2 / (cfg.n_subcarriers * cfg.noise_ratio)
    return cell * cfg.l_frames


def tdoa_gradients(scene: Scene, k_ref: int) -> np.ndarray:
    """(K, 3) gradients of the arrival-time differences w.r.t. the position.

    Row k-1 holds the gradient for tile k; the reference row is zero.
    """
    centers = scene.tile_centers
    p = scene.p_ue
    d = distances(p - centers)
    if np.minimum.reduce(d) < 1e-12:
        raise ValueError("UE coincides with a tile")
    units = (p[None, :] - centers) / d[:, None]
    grads = (units - units[k_ref - 1]) / SPEED_OF_LIGHT
    grads[k_ref - 1] = 0.0
    return grads


def fim(scene: Scene, snrs: np.ndarray, bandwidth: float, k_ref: int) -> FimResult:
    """Position Fisher information from all tile range differences.

    Clock and phase offsets are treated as known (optimistic bound).  Each
    tile other than ``k_ref`` adds the rank-one term g g^T / var of its
    range-difference gradient g and delay variance var; the terms are summed
    in tile order.  Tiles with non-positive SNR contribute nothing.  ``peb``
    is finite only when all three axes are observable above ``_RCOND``
    relative to the largest eigenvalue; ``peb_observable`` always reports the
    restricted bound.
    """
    k = scene.n_tiles
    if k < 2:
        raise ValueError("need at least 2 tiles")
    if not 1 <= k_ref <= k:
        raise IndexError("reference tile out of range")
    snrs = np.asarray(snrs, dtype=float)
    grads = tdoa_gradients(scene, k_ref)

    others = np.arange(k) != k_ref - 1
    var = toa_variance(bandwidth, snrs[others], snrs[k_ref - 1])
    use = np.isfinite(var) & (var > 0)
    g = grads[others][use]
    j = np.add.reduce(g[:, :, None] * g[:, None, :] / var[use, None, None], axis=0)

    eigvals, eigvecs = np.linalg.eigh(j)
    top = float(eigvals[-1]) if eigvals[-1] > 0 else 0.0
    observable = eigvals > _RCOND * top if top > 0 else np.zeros(3, dtype=bool)
    rank = int(np.count_nonzero(observable))
    cond = float(eigvals[-1] / eigvals[0]) if eigvals[0] > 0 else float("inf")
    if rank == 0:
        peb_obs = float("inf")
    else:
        peb_obs = float(np.sqrt(np.add.reduce(1.0 / eigvals[observable])))
    return FimResult(
        fim=j,
        peb_observable=peb_obs,
        condition_number=cond,
        rank=rank,
    )
