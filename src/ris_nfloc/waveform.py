"""Frame synthesis at the demodulated-symbol level.

The conjugate demodulator of the multi-frame OFDM link is analytic, so frames
are generated directly in closed form: per subcarrier n and frame l the symbol
is the sum over tiles of the conjugated cascade gain rotated by the subcarrier
delay phase and the tile's frame-ramp phase, plus circular Gaussian receiver
noise of variance P*N0/N per cell.  The noise is drawn as one block of real
parts followed by one block of imaginary parts, scaled in place and added to
the frames in place.  The frames take the tiles' delays as given, so this
module knows no scene geometry: the harness computes a trial's delays once
and passes them here.  A quadrature test validates the closed form against the
integral demodulator once on a tiny case.

The delay phases are never formed as an (N, K) array.  Subcarrier n is split
as n = a*m + b + 1 with block length m = isqrt(N - 1) + 1: a block-start
exponential table (A, K) is contracted in one matmul with the in-block
exponentials (K, m) times the tile gains and frame ramps (K, L).  The result
differs from the direct exp(j2*pi*f_n*tau_k) by about 1e-11 of the summed
path amplitude, the rounding of the direct exponential itself at arguments
of about 1.8e5 rad (28 GHz, 1 us).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .psp import PspAssignment


@dataclass(frozen=True)
class WaveformConfig:
    """OFDM signaling parameters.

    ``noise_psd`` is the receiver noise power N0 entering the demodulated
    cell variance P*N0/N.
    """

    n_subcarriers: int
    spacing: float  # subcarrier spacing (Hz)
    carrier: float  # carrier frequency (Hz)
    tx_power: float  # transmit power (W)
    noise_psd: float  # noise power N0 (W)
    l_frames: int

    def __post_init__(self):
        if not (self.spacing > 0 and self.carrier > 0):
            raise ValueError("subcarrier spacing and carrier must be positive")
        if self.tx_power <= 0:
            raise ValueError("tx_power must be positive")
        if self.noise_psd < 0:
            raise ValueError("noise_psd must be non-negative")
        if self.n_subcarriers < 1 or self.l_frames < 1:
            raise ValueError("grid dimensions must be >= 1")

    @property
    def bandwidth(self) -> float:
        return self.n_subcarriers * self.spacing

    @property
    def frame_duration(self) -> float:
        return 1.0 / self.spacing

    def subcarrier_frequencies(self) -> np.ndarray:
        n = np.arange(1, self.n_subcarriers + 1)
        return self.carrier + (n - (self.n_subcarriers + 1) / 2.0) * self.spacing


@dataclass(frozen=True)
class FrameMatrix:
    """Demodulated symbols, subcarriers along rows and frames along columns."""

    s: np.ndarray  # (N, L) complex
    config: WaveformConfig

    def __post_init__(self):
        if self.s.shape != (self.config.n_subcarriers, self.config.l_frames):
            raise ValueError("symbol matrix shape does not match config")


def frames_from_paths(
    taus: np.ndarray,
    betas: np.ndarray,
    amplitudes: np.ndarray,
    cfg: WaveformConfig,
    rng: np.random.Generator | None = None,
) -> FrameMatrix:
    """Closed-form frames for explicit per-path (delay, slope, amplitude) triples.

    ``amplitudes`` are the conjugated cascade gains; tests use this entry point
    to place paths at arbitrary delays without building a scene.
    """
    taus = np.atleast_1d(np.asarray(taus, dtype=float))
    betas = np.atleast_1d(np.asarray(betas, dtype=float))
    amplitudes = np.atleast_1d(np.asarray(amplitudes, dtype=complex))
    if not len(taus) == len(betas) == len(amplitudes):
        raise ValueError("taus, betas and amplitudes need one entry per path")
    n, l, k = cfg.n_subcarriers, cfg.l_frames, len(taus)
    ells = np.arange(1, l + 1)

    m = math.isqrt(n - 1) + 1  # subcarrier n = a*m + b + 1
    blocks = -(-n // m)
    starts = cfg.carrier + (np.arange(blocks) * m + 1 - (n + 1) / 2.0) * cfg.spacing
    coarse = np.exp(2j * np.pi * starts[:, None] * taus[None, :])  # (A, K)
    fine = np.exp(2j * np.pi * cfg.spacing * taus[:, None] * np.arange(m))  # (K, m)
    ramp = np.exp(2j * np.pi * betas[:, None] * ells[None, :])  # (K, L)
    scale = cfg.tx_power / cfg.n_subcarriers
    gains = (scale * amplitudes)[:, None, None] * fine[:, :, None] * ramp[:, None, :]
    s = (coarse @ gains.reshape(k, m * l)).reshape(blocks * m, l)[:n]

    if rng is not None and cfg.noise_psd > 0:
        var = cfg.tx_power * cfg.noise_psd / cfg.n_subcarriers
        # all real parts before all imaginary parts: the seed's noise stream
        noise = rng.standard_normal((2, n, l))
        noise *= np.sqrt(var / 2.0)
        s.real += noise[0]
        s.imag += noise[1]
    return FrameMatrix(s=s, config=cfg)


def synthesize_frames(
    delays: np.ndarray,
    cascade: np.ndarray,
    assignment: PspAssignment,
    cfg: WaveformConfig,
    noise_seed: int | None = 0,
) -> FrameMatrix:
    """Demodulated frames for the tiles' delays (``delays[k - 1]`` is tile
    k's, as from ``geometry.toa_vector``), cascade gains and slope assignment.

    ``noise_seed=None`` disables the noise term regardless of ``noise_psd``.
    """
    if assignment.l_frames != cfg.l_frames:
        raise ValueError("assignment frame count does not match waveform config")
    if len(cascade) != len(delays):
        raise ValueError("cascade length does not match tile count")
    rng = np.random.default_rng(noise_seed) if noise_seed is not None else None
    return frames_from_paths(delays, assignment.beta, np.conj(cascade), cfg, rng)
