"""Path decomposition on the joint (delay, slope) spectrum.

The slope columns of the demodulated frames (the frame-axis DFT, which the
frame synthesis produces directly) are transformed along the delay axis into
an oversampled 2-D map of magnitudes whose columns index the frame-ramp
slope and whose rows index delay; every path shows up as a sinc mainlobe at
its delay bin in its slope column.  Peak extraction walks the column of each
slope group, keeps the required number of local maxima, and converts bins to
arrival times, refining each peak by a three-point parabola fit on the
periodic delay axis.

A group of several tiles sharing one slope is an exact sum of as many complex
exponentials over the subcarrier axis, so its delays are also estimated
parametrically by the matrix pencil method (Hua & Sarkar, IEEE
Trans. ASSP 38(5), 1990), which separates arrivals down to the delay
resolution 1/B where overlapping mainlobes merge into one hump.  The pencil
result is kept only when the group is decomposable (every gap at least 1/B)
and every fitted path clears the admissibility floor; otherwise the group
keeps the peak-picker result.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import kernels
from .psp import PspAssignment
from .waveform import FrameMatrix, WaveformConfig


@dataclass(frozen=True)
class SpectrumMap:
    """Oversampled joint spectrum magnitudes of one frame matrix.

    ``samples`` are the slope columns the map was built from
    (:attr:`FrameMatrix.s`): column v holds the N subcarrier samples of slope
    column v, and ``grid[:, v]`` holds the magnitudes of their zero-padded
    n_bar-point transform.  The receiver reads only magnitudes, so the grid
    is real float64; any other grid raises ValueError.
    """

    grid: np.ndarray  # (n_bar, L) float64 magnitudes
    oversampling: int
    cfg: WaveformConfig
    samples: np.ndarray  # (N, L) complex

    def __post_init__(self):
        if self.grid.dtype != np.float64:
            raise ValueError(f"grid must hold float64 magnitudes, not {self.grid.dtype}")
        if self.grid.shape != (self.n_bar, self.cfg.l_frames):
            raise ValueError("grid shape mismatch")
        if self.samples.shape != (self.cfg.n_subcarriers, self.cfg.l_frames):
            raise ValueError("samples shape mismatch")

    @property
    def n_bar(self) -> int:
        """Rows of the oversampled delay axis."""
        return self.oversampling * self.cfg.n_subcarriers

    @property
    def bin_seconds(self) -> float:
        """Delay width of one oversampled row."""
        return 1.0 / (self.n_bar * self.cfg.spacing)


@dataclass(frozen=True)
class ToaGroups:
    """Per-slope-group arrival times extracted from a spectrum map.

    ``toas[i]`` holds the group's arrival times sorted descending with
    ``magnitudes[i]`` the matching peak heights.  Groups whose column did not
    yield enough admissible local maxima appear in ``under_detected`` and are
    absent from ``toas``.
    """

    toas: dict[int, np.ndarray]
    magnitudes: dict[int, np.ndarray]
    under_detected: frozenset[int] = field(default_factory=frozenset)

    @classmethod
    def from_delays(cls, delays, assignment: PspAssignment) -> ToaGroups:
        """Exact arrivals: every group's true delays with unit peak heights.

        ``delays[k - 1]`` is tile k's arrival time in seconds (as from
        ``geometry.toa_vector``); each group's delays are sorted descending.
        """
        delays = np.asarray(delays, dtype=float)
        groups = assignment.groups.items()
        return cls(
            toas={i: np.sort(delays[np.array(t) - 1])[::-1] for i, t in groups},
            magnitudes={i: np.ones(len(t)) for i, t in groups},
        )


# Complex work buffer of one block of slope columns.  Each FFT call costs
# about 0.05 ms at n_bar = 12800, so larger blocks run faster; at 1.5 MiB a
# full-scale trial (N = 3200, L = 16, q = 4) holds block and float map in
# less than the 3.3 MB complex grid, while 2 MiB raised its peak RSS
_BLOCK_BYTES = 3 << 19


def _column_blocks(samples: np.ndarray, oversampling: int):
    """Zero-padded delay-axis FFTs of the slope columns, a block at a time.

    Yields ``(first column, block)`` with ``block`` a complex
    (columns, n_bar) array whose row r is the n_bar-point transform of slope
    column ``first + r``, subcarrier n placed at sample n mod n_bar.  Every
    block is written into one work buffer of at most ``_BLOCK_BYTES`` (one
    column when a column is larger), so a block is valid only until the
    next one is drawn.
    """
    n, l = samples.shape
    n_bar = oversampling * n
    head = min(n, n_bar - 1)
    rows = min(l, max(1, _BLOCK_BYTES // (16 * n_bar)))
    work = np.empty((rows, n_bar), dtype=np.complex128)
    for first in range(0, l, rows):
        cols = samples[:, first : first + rows].T
        block = work[: len(cols)]
        block[:, 0] = 0.0
        block[:, head + 1 :] = 0.0
        block[:, 1 : head + 1] = cols[:, :head]
        # at oversampling 1, subcarrier N wraps to row 0
        block[:, : n - head] = cols[:, head:]
        # pocketfft transforms each row on its own: a block's rows equal
        # those of one transform over all L columns bit for bit
        yield first, np.fft.fft(block, axis=1, out=block)


def spectrum_2d(frames: FrameMatrix, oversampling: int) -> SpectrumMap:
    """Transform slope columns into the oversampled joint spectrum.

    The zero-padded delay-axis FFT of the slope columns
    (:func:`_column_blocks`), with the 1-based subcarrier index placing
    subcarrier n at row n mod n_bar, kept as magnitudes only; the columns
    are kept as ``samples``.  After :meth:`FrameMatrix.from_symbols` the
    complex transform agrees with the literal double sum
    :func:`kernels.idft2_dense` to 1e-9 relative.  The columns are
    transformed a block at a time in one work buffer, so a trial holds the
    float map and that buffer, never a complex n_bar x L grid.
    """
    if oversampling < 1:
        raise ValueError("oversampling must be >= 1")
    samples = frames.s
    n, l = samples.shape
    # frame-major, so each slope column's magnitudes are contiguous
    mags = np.empty((l, oversampling * n))
    for first, block in _column_blocks(samples, oversampling):
        np.abs(block, out=mags[first : first + len(block)])
    return SpectrumMap(
        grid=mags.T,
        oversampling=oversampling,
        cfg=frames.config,
        samples=samples,
    )


def quadratic_refine(spec: SpectrumMap, u, v) -> np.ndarray:
    """Sub-bin arrival times from three-point parabolas around bins ``u``,
    fitted to the map's magnitudes.

    ``u`` holds delay bins and ``v`` their columns, scalars or arrays that
    broadcast together; the result has their broadcast shape.  The delay
    axis is periodic, so bins 0 and n_bar - 1 are neighbors and an edge bin
    may refine to just below 0 or just below n_bar.  A bin on a flat
    neighborhood keeps its unrefined bin center; the fitted offset is clamped
    to half a bin.
    """
    u = np.asarray(u)
    # row -1 is the last row, so only the right neighbor needs the modulo
    a, b, c = spec.grid[np.stack((u - 1, u, (u + 1) % spec.n_bar)), v]
    denom = a - 2.0 * b + c
    fit = np.abs(denom) >= 1e-300
    offset = np.clip(0.5 * (a - c) / np.where(fit, denom, 1.0), -0.5, 0.5)
    return np.where(fit, u + offset, u) * spec.bin_seconds


def extract_toas(
    spec: SpectrumMap,
    assignment: PspAssignment,
    threshold_factor: float = 6.0,
) -> ToaGroups:
    """Pull each slope group's arrival times out of its spectrum column.

    For slope i/L the column is ``i mod L``, read as magnitudes straight
    from the map (a view, never written); the group needs as many
    admissible local maxima (at least ``threshold_factor`` times the column
    median, :func:`kernels.median`) as it has tiles, the largest ones win,
    and ties in magnitude resolve toward the smaller bin.  Columns that
    cannot supply enough peaks mark their group under-detected; a column
    whose median is not finite raises ValueError instead, since no peak can
    be told from its floor.  A one-tile group is first given its column's
    strongest bin by :func:`kernels.strongest_peak`, which skips the median
    and the peak scan where they cannot change that pick; the result is the
    same either way.  Every chosen peak is refined by a parabola
    (:func:`quadratic_refine`).  A group of m >= 2 tiles is also estimated
    from the map's ``samples`` by matrix pencil (see
    :func:`_pencil_groups`); the pencil's m delays and
    isolated-peak heights replace the peak-picker result, under-detection
    included, only when every circular gap between the delays is at least
    1/B and every height clears the admissibility floor.  Arrival-time sets
    spanning more than half the unambiguous range are unwrapped jointly,
    which keeps differential delays intact when the clock offset pushes the
    set across the period boundary.
    """
    if spec.cfg.l_frames != assignment.l_frames:
        raise ValueError("spectrum and assignment frame counts differ")
    l = assignment.l_frames
    toas: dict[int, np.ndarray] = {}
    mags: dict[int, np.ndarray] = {}
    shared = []
    picked = []  # (group, column, chosen peak bins)

    for i in sorted(assignment.groups):
        tiles = assignment.groups[i]
        v = i % l
        column = spec.grid[:, v]
        if len(tiles) == 1:
            peak = kernels.strongest_peak(column, threshold_factor)
            if peak is not None:
                chosen = np.array([peak])
                picked.append((i, v, chosen))
                mags[i] = column[chosen]
                continue
        floor = kernels.median(column)
        if not np.isfinite(floor):
            raise ValueError(f"slope column {v} has a non-finite median magnitude")
        threshold = threshold_factor * floor
        mask = kernels.column_peak_mask(column, threshold)
        peak_bins = np.nonzero(mask)[0]
        order = np.lexsort((peak_bins, -column[peak_bins]))
        if len(tiles) >= 2 and len(peak_bins):
            strongest = int(peak_bins[order[0]])
            shared.append((i, v, len(tiles), strongest, threshold))
        if len(peak_bins) < len(tiles):
            continue
        chosen = peak_bins[order[: len(tiles)]]
        picked.append((i, v, chosen))
        mags[i] = column[chosen]

    if picked:
        # one parabola pass over the chosen peaks of every column
        groups, cols, bins = zip(*picked)
        sizes = [len(b) for b in bins]
        times = quadratic_refine(spec, np.concatenate(bins), np.repeat(cols, sizes))
        toas.update(zip(groups, np.split(times, np.cumsum(sizes)[:-1])))

    for i, (tau, heights) in _pencil_groups(spec, shared).items():
        toas[i] = tau
        mags[i] = heights

    _unwrap_inplace(toas, 1.0 / spec.cfg.spacing)
    for i in toas:
        desc = np.argsort(-toas[i], kind="stable")
        toas[i] = toas[i][desc]
        mags[i] = mags[i][desc]
    # every group is picked, by the peak picker or the pencil, or under-detected
    under = frozenset(assignment.groups.keys() - toas.keys())
    return ToaGroups(toas=toas, magnitudes=mags, under_detected=under)


_PENCIL_SAMPLES = 32  # decimated subcarrier samples per pencil


def _pencil_groups(
    spec: SpectrumMap, candidates: list[tuple[int, int, int, int, float]]
) -> dict[int, tuple[np.ndarray, np.ndarray]]:
    """Matrix-pencil delays and isolated-peak heights of shared slope groups.

    ``candidates`` holds ``(group, column, tile count m, strongest peak bin,
    admissibility floor)``.  A slope column's N samples are an exact sum of m
    exponentials ``z_k**n`` with ``z_k = exp(2j*pi*u_k/n_bar)`` for delay bin
    ``u_k``.  They are rotated to the strongest peak and summed in blocks of
    D = N // 32 subcarriers, which keeps the sum exact with poles ``z_k**D``
    and block gains ``sum_d z_k**d``; a pencil of a third of the J = N // D
    decimated samples yields the poles, all groups of one m in one batch of
    linear-algebra calls.  The decimated poles see delays modulo n_bar/D bins
    around the strongest peak.  Heights are ``N*|b_k|``, the least-squares
    amplitude on the unit-modulus poles divided by the block gain, i.e. the
    peak an isolated path of that amplitude would show.

    Returns ``{group: (delays, heights)}`` for the groups whose delays are at
    least 1/B (``oversampling`` bins) apart on that circle and whose heights
    all reach the floor; the others, and groups of more than J // 3 tiles, are
    left to the peak picker.
    """
    n = spec.cfg.n_subcarriers
    d = max(1, n // _PENCIL_SAMPLES)
    j = n // d
    p = j // 3
    candidates = [c for c in candidates if c[2] <= p]
    if not candidates:
        return {}
    group, cols, sizes, u0, floor = (np.array(a) for a in zip(*candidates))
    step = -2j * np.pi * u0 / spec.n_bar
    blocks = spec.samples[: j * d, cols].reshape(j, d, len(cols))
    y = np.einsum("jdg,dg->gj", blocks, np.exp(np.outer(np.arange(d), step)))
    y *= np.exp(np.outer(step, d * np.arange(j)))
    # the top-m eigenvectors of H^T conj(H) span the row space of the Hankel
    # matrix H, which is shift-invariant with the decimated poles
    hankel = y[:, np.arange(j - p)[:, None] + np.arange(p + 1)]
    vecs = np.linalg.eigh(np.swapaxes(hankel, 1, 2) @ hankel.conj())[1]

    circle = spec.n_bar / d  # bins the decimated poles tell apart
    out = {}
    for m in np.unique(sizes):
        sel = np.nonzero(sizes == m)[0]
        basis = vecs[sel, :, -m:]
        # shift invariance basis[1:] = basis[:-1] @ psi; the columns are
        # orthonormal, so the normal matrix is I - r^H r with r the last row
        top, bottom, r = basis[:, :-1], basis[:, 1:], basis[:, -1:]
        a = np.swapaxes(top.conj(), 1, 2) @ bottom
        # (a degenerate subspace with |r| = 1 gets garbage poles, not an error)
        rr = np.maximum(1.0 - np.sum(np.abs(r) ** 2, axis=(1, 2)), 1e-12)
        psi = a + np.swapaxes(r.conj(), 1, 2) @ (r @ a) / rr[:, None, None]
        phi = np.angle(np.linalg.eigvals(psi))
        offsets = phi * circle / (2.0 * np.pi)
        ring = np.sort(offsets, axis=1)
        gaps = np.diff(np.concatenate([ring, ring[:, :1] + circle], axis=1))
        keep = gaps.min(axis=1) >= spec.oversampling
        sel, phi, offsets = sel[keep], phi[keep], offsets[keep]
        if not len(sel):
            continue
        # distinct poles: the least-squares normal matrix is nonsingular
        vander = np.exp(1j * np.arange(j)[:, None] * phi[:, None, :])
        vander_h = np.swapaxes(vander.conj(), 1, 2)
        amps = np.linalg.solve(vander_h @ vander, vander_h @ y[sel, :, None])
        cycles = phi / (2.0 * np.pi)
        gain = d * np.abs(np.sinc(cycles) / np.sinc(cycles / d))
        heights = n * np.abs(amps[..., 0]) / gain
        bins = np.mod(u0[sel, None] + offsets, spec.n_bar)
        for k, g in enumerate(sel):
            if np.all(heights[k] >= floor[g]):
                out[int(group[g])] = (bins[k] * spec.bin_seconds, heights[k])
    return out


def _unwrap_inplace(toas: dict[int, np.ndarray], period: float) -> None:
    """Shift wrapped arrival times up by one period when a set straddles zero.

    Physical per-trial spreads are far below half a period, so a spread above
    period/2 can only come from the modulo wrap of the common clock offset.
    """
    values = [t for arr in toas.values() for t in arr]
    if not values:
        return
    if max(values) - min(values) <= period / 2.0:
        return
    for i, arr in toas.items():
        toas[i] = np.where(arr < period / 2.0, arr + period, arr)
