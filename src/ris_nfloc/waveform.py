"""Slope-column synthesis at the demodulated-symbol level.

The conjugate demodulator of the multi-frame OFDM link is analytic: per
subcarrier n and frame l the symbol is the sum over tiles of the conjugated
cascade gain rotated by the subcarrier delay phase and the tile's frame-ramp
phase, plus circular Gaussian receiver noise of variance nu/N per cell: a
trial runs in units of the reference path amplitude, with unit transmit
power and the noise ratio nu.
``test_waveform.py::test_closed_form_matches_quadrature_demodulation``
checks that closed form against the integral demodulator on a tiny case.

The receiver keeps only the frame-axis DFT of the N x L frames, and a slope
i/L ramp is one DFT basis vector: slope column v holds, scaled by L, exactly
the paths whose slope is i/L with i = v (mod L).  So the frames are never
formed.  Each slope column is synthesized from its own tiles, and the noise,
drawn in the frame domain as one block of real parts followed by one block
of imaginary parts, is the only term that passes through the frame-axis DFT
(``_frame_dft``, the one frame DFT, which :meth:`FrameMatrix.from_symbols`
applies to an arbitrary symbol matrix).  The synthesis takes the tiles'
delays as given, so this module knows no scene geometry: the harness
computes a trial's delays once and passes them here.

The delay phases are never formed as an (N, K) array.  Subcarrier n is split
as n = a*m + b + 1 with block length m = isqrt(N - 1) + 1: each column is the
product of its tiles' block-start exponentials (A, g) with their in-block
exponentials times the tile gains (g, m), one batched matmul over the columns
with groups zero-padded to the largest: L*A*g*m products for groups of at
most g tiles, A*K*m when the groups are even.  The
result differs from the direct exp(j2*pi*f_n*tau_k) by about 1e-11 of the
summed path amplitude per frame, the rounding of the direct exponential
itself at arguments of about 1.8e5 rad (28 GHz, 1 us).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .psp import PspAssignment


@dataclass(frozen=True)
class WaveformConfig:
    """OFDM signaling parameters, in units of the reference path amplitude.

    The transmit power is 1, and ``noise_ratio`` is the noise ratio nu that
    enters the demodulated cell variance nu/N: the experiment config passes
    10**(noise_ratio_db/10).
    """

    n_subcarriers: int
    spacing: float  # subcarrier spacing (Hz)
    carrier: float  # carrier frequency (Hz)
    noise_ratio: float  # noise ratio nu, relative to unit transmit power
    l_frames: int

    def __post_init__(self):
        if not (self.spacing > 0 and self.carrier > 0):
            raise ValueError("subcarrier spacing and carrier must be positive")
        if self.noise_ratio < 0:
            raise ValueError("noise_ratio must be non-negative")
        if self.n_subcarriers < 1 or self.l_frames < 1:
            raise ValueError("grid dimensions must be >= 1")

    @property
    def bandwidth(self) -> float:
        return self.n_subcarriers * self.spacing

    def subcarrier_frequencies(self) -> np.ndarray:
        n = np.arange(1, self.n_subcarriers + 1)
        return self.carrier + (n - (self.n_subcarriers + 1) / 2.0) * self.spacing


@dataclass(frozen=True)
class FrameMatrix:
    """Slope-column samples: subcarriers along rows, slope columns along
    columns.

    Column v holds the N subcarrier samples of slope v/L: the frame-axis DFT
    of the demodulated frames, with 1-based frame indices.  The synthesis
    stores each column contiguously, the layout the delay-axis transform
    reads.
    """

    s: np.ndarray  # (N, L) complex
    config: WaveformConfig

    def __post_init__(self):
        if self.s.shape != (self.config.n_subcarriers, self.config.l_frames):
            raise ValueError("symbol matrix shape does not match config")

    @classmethod
    def from_symbols(cls, symbols, cfg: WaveformConfig) -> FrameMatrix:
        """Slope columns of an arbitrary (N, L) frame-domain symbol matrix."""
        symbols = np.asarray(symbols, dtype=complex)
        return cls(s=_frame_dft(symbols.real, symbols.imag, 1.0).T, config=cfg)


def _frame_dft(real: np.ndarray, imag: np.ndarray, scale: float) -> np.ndarray:
    """Frame-axis DFT of the (N, L) frames ``scale*real + 1j*scale*imag``
    with 1-based frame indices, one slope column per row of the (L, N) result.

    The 1-based index is a cyclic shift of the frames by one, made as they
    are copied into the transform's input; the transform writes transposed.
    """
    n, l = real.shape
    shifted = np.empty((n, l), dtype=complex)
    for part, out in ((real, shifted.real), (imag, shifted.imag)):
        np.multiply(part[:, -1:], scale, out=out[:, :1])
        np.multiply(part[:, :-1], scale, out=out[:, 1:])
    rows = np.empty((l, n), dtype=complex)
    np.fft.fft(shifted, axis=1, out=rows.T)
    return rows


def frames_from_paths(
    taus: np.ndarray,
    betas: np.ndarray,
    amplitudes: np.ndarray,
    cfg: WaveformConfig,
    rng: np.random.Generator | None = None,
) -> FrameMatrix:
    """Closed-form slope columns for explicit per-path (delay, slope,
    amplitude) triples.

    ``amplitudes`` are the conjugated cascade gains; tests use this entry point
    to place paths at arbitrary delays without building a scene.  Every slope
    must be a multiple of 1/L (ValueError otherwise); a path of slope i/L
    lands in column i mod L, scaled by L/N at unit transmit power.  With
    ``rng``, each sample adds receiver noise of variance L*nu/N, nu the
    config's ``noise_ratio``.
    """
    # np.atleast_1d(np.asarray(x, dtype)) in one call
    taus = np.array(taus, dtype=float, copy=None, ndmin=1)
    betas = np.array(betas, dtype=float, copy=None, ndmin=1)
    amplitudes = np.array(amplitudes, dtype=complex, copy=None, ndmin=1)
    if not len(taus) == len(betas) == len(amplitudes):
        raise ValueError("taus, betas and amplitudes need one entry per path")
    n, l, k = cfg.n_subcarriers, cfg.l_frames, len(taus)
    slots = betas * l
    cols = np.rint(slots)
    if np.logical_or.reduce(np.abs(slots - cols) > 1e-9):
        raise ValueError(f"every slope must be a multiple of 1/L = 1/{l}")
    cols = cols.astype(int) % l

    noise = None
    if rng is not None and cfg.noise_ratio > 0:
        var = cfg.noise_ratio / cfg.n_subcarriers
        # all real parts before all imaginary parts: the seed's noise stream;
        # transformed before the signal is built, so that at most three N x L
        # arrays are alive at once
        draws = rng.standard_normal((2, n, l))
        noise = _frame_dft(draws[0], draws[1], np.sqrt(var / 2.0))
        del draws

    m = math.isqrt(n - 1) + 1  # subcarrier n = a*m + b + 1
    blocks = -(-n // m)
    starts = cfg.carrier + (np.arange(blocks) * m + 1 - (n + 1) / 2.0) * cfg.spacing
    # the tiles sorted by column, each at its rank within its column's group
    order = cols.argsort(kind="stable")
    counts = np.bincount(cols, minlength=l)
    cols = cols[order]
    rank = np.arange(k) - (counts.cumsum() - counts)[cols]
    coarse = np.zeros((l, blocks, counts.max(initial=0)), dtype=complex)
    coarse[cols, :, rank] = np.exp(2j * np.pi * taus[order, None] * starts)
    fine = np.zeros((l, coarse.shape[2], m), dtype=complex)
    scale = l / cfg.n_subcarriers  # a column sums L frames
    fine[cols, rank] = (scale * amplitudes[order, None]) * np.exp(
        2j * np.pi * cfg.spacing * taus[order, None] * np.arange(m)
    )
    rows = (coarse @ fine).reshape(l, blocks * m)[:, :n]
    if noise is not None:
        rows += noise
    return FrameMatrix(s=rows.T, config=cfg)


def synthesize_frames(
    delays: np.ndarray,
    cascade: np.ndarray,
    assignment: PspAssignment,
    cfg: WaveformConfig,
    noise_seed: int,
) -> FrameMatrix:
    """Slope columns for the tiles' delays (``delays[k - 1]`` is tile k's, as
    from ``geometry.toa_vector``), cascade gains and slope assignment, with
    the receiver noise drawn from ``noise_seed`` (none when ``noise_ratio`` is
    zero; :func:`frames_from_paths` without ``rng`` gives noiseless frames).
    """
    if assignment.l_frames != cfg.l_frames:
        raise ValueError("assignment frame count does not match waveform config")
    if len(cascade) != len(delays):
        raise ValueError("cascade length does not match tile count")
    rng = np.random.default_rng(noise_seed)
    return frames_from_paths(delays, assignment.beta, np.conj(cascade), cfg, rng)
