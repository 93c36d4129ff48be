"""Numpy reference kernels: the dense 2-D transform and the peak scan.

``idft2_dense`` is the literal double sum, the oracle that ``spectrum_2d``'s
FFT path is tested against; ``column_peak_mask`` is the cyclic local-maximum
scan run on every spectrum column during peak extraction.  The ``bench``
subcommand times both.
"""

from __future__ import annotations

import numpy as np


def idft2_dense(s: np.ndarray, n_bar: int) -> np.ndarray:
    """Reference transform: explicit double sum over (subcarrier, frame).

    Indices are 1-based inside the sums, matching the frame synthesis model;
    the fast FFT path in :mod:`ris_nfloc.spectrum` must agree with this to
    1e-9 relative.  Evaluated as two precomputed phase matmuls.
    """
    n, l = s.shape
    w_u = np.exp(-2j * np.pi * np.outer(np.arange(n_bar), np.arange(1, n + 1)) / n_bar)
    w_v = np.exp(-2j * np.pi * np.outer(np.arange(1, l + 1), np.arange(l)) / l)
    return w_u @ s @ w_v


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
