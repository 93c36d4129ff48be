"""Numpy reference kernels: the dense 2-D transform, the one-tile peak
shortcut, the noise-floor median and the peak scan.

``idft2_dense`` is the literal double sum over a frame-domain symbol matrix,
the oracle that the frame-axis DFT (``FrameMatrix.from_symbols``) followed by
the complex delay-axis FFT of ``spectrum_2d`` is tested against, called only
by the tests.  During peak extraction ``strongest_peak`` first tries to
decide the magnitude column of a one-tile slope group from its strongest bin
alone; ``median`` and ``column_peak_mask`` run on the columns it leaves
undecided and on every shared group's column, the first to set the
admissibility floor, the second to find the cyclic local maxima above it.
"""

from __future__ import annotations

import numpy as np


def idft2_dense(s: np.ndarray, n_bar: int) -> np.ndarray:
    """Reference transform: explicit double sum over (subcarrier, frame).

    ``s`` holds frame-domain symbols, subcarriers along rows and frames
    along columns.  Indices are 1-based inside the sums, matching the frame
    synthesis model; the complex transform whose magnitudes
    ``spectrum_2d(FrameMatrix.from_symbols(s, cfg), q)`` keeps must agree
    with this to 1e-9 relative.  Evaluated as two precomputed
    phase matmuls.
    """
    n, l = s.shape
    w_u = np.exp(-2j * np.pi * np.outer(np.arange(n_bar), np.arange(1, n + 1)) / n_bar)
    w_v = np.exp(-2j * np.pi * np.outer(np.arange(1, l + 1), np.arange(l)) / l)
    return w_u @ s @ w_v


_HALF_MAX = np.finfo(np.float64).max / 2.0


def strongest_peak(mag: np.ndarray, factor: float) -> int | None:
    """The peak a one-tile group picks from ``mag``, when the median cannot
    change it; ``None`` when it might.

    With ``threshold = factor * median(mag)``, the group's peak is the bin
    of ``column_peak_mask(mag, threshold)`` with the largest magnitude, ties
    toward the smaller bin.  Let ``b`` be the first maximum, ``x = mag[b]``
    and ``y`` the largest float with ``factor * y <= x``.  When ``x`` is at
    most half the largest float, ``b`` beats its left neighbor (only
    ``b == 0`` with ``mag[-1] == x`` fails), and at most ``n - n // 2 - 1``
    bins exceed ``y``, the upper middle order statistic, and so the median,
    is at most ``y``: the threshold is at most ``x``, ``b`` is admissible
    and it is the peak.  The bound on ``x`` keeps the sum of the two middle
    values, which never exceeds ``2 * x``, from overflowing.  A ``factor``
    that is not finite and positive decides nothing.
    """
    factor = float(factor)
    if not 0.0 < factor < np.inf:
        return None
    b = int(mag.argmax())
    x = float(mag[b])
    if not x <= _HALF_MAX or (b == 0 and mag[-1] >= x):
        return None
    y = x / factor
    while factor * y > x:
        y = float(np.nextafter(y, -np.inf))
    n = len(mag)
    if np.count_nonzero(mag > y) > n - n // 2 - 1:
        return None
    return b


def median(mag: np.ndarray) -> float:
    """Median of a 1-D profile from one selection pass.

    ``np.median`` partitions at both middle ranks and at the last one (its
    NaN check); one partition at the upper middle rank suffices, since the
    lower middle value is the largest entry below it.  On finite input the
    result equals ``np.median`` bit for bit; a profile holding a NaN gives
    NaN, as there.
    """
    h = len(mag) // 2
    part = mag.copy()  # np.partition(mag, h) without its Python wrapper
    part.partition(h)
    if np.isnan(np.maximum.reduce(part[h:])):
        return float("nan")
    if len(mag) % 2:
        return float(part[h])
    return float((np.maximum.reduce(part[:h]) + part[h]) / 2.0)


def column_peak_mask(mag: np.ndarray, threshold: float) -> np.ndarray:
    """Cyclic strict local maxima of a 1-D magnitude profile.

    A bin is a peak when it beats its left neighbor strictly and its right
    neighbor at least weakly (plateau ties resolve to the smaller index), and
    its magnitude reaches ``threshold``.  The neighbors are compared only
    at the bins that reach the threshold, a few percent of a column on the
    benchmark configs; the mask is the same as comparing every bin.
    """
    mask = mag >= threshold
    (at,) = mask.nonzero()
    here = mag[at]
    keep = here > mag[at - 1]  # bin -1 is the last bin
    keep &= here >= mag.take(at + 1, mode="wrap")
    mask[at] = keep
    return mask
