"""Numpy reference kernels: the dense 2-D transform, the noise-floor median
and the peak scan.

``idft2_dense`` is the literal double sum over a frame-domain symbol matrix,
the oracle that the frame-axis DFT (``FrameMatrix.from_symbols``) followed by
the delay-axis FFT (``spectrum_2d``) is tested against, called only by the
tests and ``selftest``; ``median`` and ``column_peak_mask`` run on every
spectrum column during peak extraction, the first to set the admissibility
floor, the second to find the cyclic local maxima above it.
"""

from __future__ import annotations

import numpy as np


def idft2_dense(s: np.ndarray, n_bar: int) -> np.ndarray:
    """Reference transform: explicit double sum over (subcarrier, frame).

    ``s`` holds frame-domain symbols, subcarriers along rows and frames
    along columns.  Indices are 1-based inside the sums, matching the frame
    synthesis model; ``spectrum_2d(FrameMatrix.from_symbols(s, cfg), q)``
    must agree with this to 1e-9 relative.  Evaluated as two precomputed
    phase matmuls.
    """
    n, l = s.shape
    w_u = np.exp(-2j * np.pi * np.outer(np.arange(n_bar), np.arange(1, n + 1)) / n_bar)
    w_v = np.exp(-2j * np.pi * np.outer(np.arange(1, l + 1), np.arange(l)) / l)
    return w_u @ s @ w_v


def median(mag: np.ndarray) -> float:
    """Median of a 1-D profile from one selection pass.

    ``np.median`` partitions at both middle ranks and at the last one (its
    NaN check); one partition at the upper middle rank suffices, since the
    lower middle value is the largest entry below it.  On finite input the
    result equals ``np.median`` bit for bit; a profile holding a NaN gives
    NaN, as there.
    """
    h = len(mag) // 2
    part = np.partition(mag, h)
    if np.isnan(part[h:].max()):
        return float("nan")
    if len(mag) % 2:
        return float(part[h])
    return float((part[:h].max() + part[h]) / 2.0)


def column_peak_mask(mag: np.ndarray, threshold: float) -> np.ndarray:
    """Cyclic strict local maxima of a 1-D magnitude profile.

    A bin is a peak when it beats its left neighbor strictly and its right
    neighbor at least weakly (plateau ties resolve to the smaller index), and
    its magnitude reaches ``threshold``.
    """
    mask = mag >= threshold
    mask[1:] &= mag[1:] > mag[:-1]
    mask[:1] &= mag[:1] > mag[-1:]
    mask[:-1] &= mag[:-1] >= mag[1:]
    mask[-1:] &= mag[-1:] >= mag[:1]
    return mask
