"""Path decomposition on the joint (delay, slope) spectrum.

The demodulated frame matrix is transformed into an oversampled 2-D map whose
columns index the frame-ramp slope and whose rows index delay; every path
shows up as a 2-D sinc mainlobe at (delay bin, slope bin).  Peak extraction
walks the column of each slope group, keeps the required number of local
maxima, and converts bins to arrival times, refining each peak by a
three-point parabola fit.

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
    """Oversampled joint spectrum of one frame matrix.

    ``samples`` is the frame-axis transform before the delay-axis one: column
    v holds the N subcarrier samples of slope column v, whose zero-padded
    n_bar-point transform is ``grid[:, v]``.  It is ``None`` for a map built
    from a grid alone, and then every group is peak-picked.
    """

    grid: np.ndarray  # (n_bar, L) complex
    oversampling: int
    n_bar: int
    cfg: WaveformConfig
    samples: np.ndarray | None = None  # (N, L) complex

    def __post_init__(self):
        if self.n_bar != self.oversampling * self.cfg.n_subcarriers:
            raise ValueError("n_bar must equal oversampling * n_subcarriers")
        if self.grid.shape != (self.n_bar, self.cfg.l_frames):
            raise ValueError("grid shape mismatch")
        if self.samples is not None and self.samples.shape != (
            self.cfg.n_subcarriers,
            self.cfg.l_frames,
        ):
            raise ValueError("samples shape mismatch")

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


def spectrum_2d(frames: FrameMatrix, oversampling: int) -> SpectrumMap:
    """Transform frames into the oversampled joint spectrum.

    Runs the frame-axis FFT on the unpadded N x L frames, then one
    zero-padded delay-axis FFT, with 1-based subcarrier/frame indices in the
    transform phases, and keeps the frame-axis result as ``samples``.  It
    agrees with the literal double sum :func:`kernels.idft2_dense` to 1e-9
    relative.
    """
    if oversampling < 1:
        raise ValueError("oversampling must be >= 1")
    s = frames.s
    n, l = s.shape
    n_bar = oversampling * n
    # the 1-based frame index becomes a per-column phase
    samples = np.fft.fft(s, axis=1) * np.exp(-2j * np.pi * np.arange(l) / l)
    # frame-major padding puts each slope column in contiguous memory; the
    # row placement handles the 1-based subcarrier index; the FFT runs in
    # place, so a trial allocates one n_bar x L buffer, not two
    padded = np.zeros((l, n_bar), dtype=np.complex128)
    padded[:, np.arange(1, n + 1) % n_bar] = samples.T
    grid = np.fft.fft(padded, axis=1, out=padded).T
    return SpectrumMap(
        grid=grid,
        oversampling=oversampling,
        n_bar=n_bar,
        cfg=frames.config,
        samples=samples,
    )


def quadratic_refine(spec: SpectrumMap, u, v) -> np.ndarray:
    """Sub-bin arrival times from three-point parabolas around bins ``u``.

    ``u`` holds delay bins and ``v`` their columns, scalars or arrays that
    broadcast together; the result has their broadcast shape.  A bin at the
    grid edge or on a flat neighborhood keeps its unrefined bin center; the
    fitted offset is clamped to half a bin.
    """
    u = np.asarray(u)
    inner = (u >= 1) & (u <= spec.n_bar - 2)
    at = np.where(inner, u, 1)
    a, b, c = np.abs(spec.grid[np.stack((at - 1, at, at + 1)), v])
    denom = a - 2.0 * b + c
    fit = inner & (np.abs(denom) >= 1e-300)
    offset = np.clip(0.5 * (a - c) / np.where(fit, denom, 1.0), -0.5, 0.5)
    return np.where(fit, u + offset, u) * spec.bin_seconds


def extract_toas(
    spec: SpectrumMap,
    assignment: PspAssignment,
    threshold_factor: float = 6.0,
) -> ToaGroups:
    """Pull each slope group's arrival times out of its spectrum column.

    For slope i/L the column is ``i mod L``; the group needs as many
    admissible local maxima (at least ``threshold_factor`` times the column
    median, :func:`kernels.median`) as it has tiles, the largest ones win,
    and ties in magnitude resolve toward the smaller bin.  Columns that
    cannot supply enough peaks mark their group under-detected.  Every
    chosen peak is refined by a parabola (:func:`quadratic_refine`).  When
    the map has ``samples``, a group of m >= 2 tiles is also estimated by
    matrix pencil (see :func:`_pencil_groups`); the pencil's m delays and
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
    under: set[int] = set()
    shared = []
    picked = []  # (group, column, chosen peak bins)

    for i in sorted(assignment.groups):
        tiles = assignment.groups[i]
        v = i % l
        column = np.abs(spec.grid[:, v])
        threshold = threshold_factor * kernels.median(column)
        mask = kernels.column_peak_mask(column, threshold)
        peak_bins = np.nonzero(mask)[0]
        order = np.lexsort((peak_bins, -column[peak_bins]))
        if len(tiles) >= 2 and len(peak_bins) and spec.samples is not None:
            strongest = int(peak_bins[order[0]])
            shared.append((i, v, len(tiles), strongest, threshold))
        if len(peak_bins) < len(tiles):
            under.add(i)
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
        under.discard(i)

    _unwrap_inplace(toas, 1.0 / spec.cfg.spacing)
    for i in toas:
        desc = np.argsort(-toas[i], kind="stable")
        toas[i] = toas[i][desc]
        mags[i] = mags[i][desc]
    return ToaGroups(toas=toas, magnitudes=mags, under_detected=frozenset(under))


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
