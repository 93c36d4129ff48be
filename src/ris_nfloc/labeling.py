"""Path labeling: matching extracted arrival times to reflecting tiles.

Tiles with exclusive slopes label themselves and seed a first position fix.
Within a slope-sharing group the assignment of descending arrival times to
tiles is decided geometrically: for a candidate pair, the set of positions
for which the left tile's path is the longer one is bounded by a hyperbola
with the two tiles as foci, and membership reduces to a distance-difference
inequality that needs no curve evaluation.  Groups of two resolve with one
membership test; larger groups bubble-sort their hypothesis with pairwise
tests, and when the sorted hypothesis fails the non-adjacent cross-checks, an
exhaustive residual-error search over the group's permutations takes over.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import permutations

import numpy as np

from .constants import SPEED_OF_LIGHT
from .csvfile import write_csv
from .geometry import Scene
from .psp import PspAssignment
from .spectrum import ToaGroups
from .tdoa import build_system, solve_position


@dataclass(frozen=True)
class Discriminant:
    """Hyperboloid separating the two labeling orders of a tile pair.

    ``center`` is the pair midpoint; ``semi_axes`` are (ux, uy, uz) with the
    focal semi-axis ux signed by which tile is closer to the BS and uy == uz.
    ``degenerate`` marks BS equidistance (ux == 0) or a BS collinear with the
    pair (uy == 0), where the quadric form degenerates.
    """

    center: np.ndarray
    semi_axes: tuple[float, float, float]
    k1: int
    k2: int
    degenerate: bool


@dataclass(frozen=True)
class LabelMap:
    """Arrival-time-to-tile assignment produced by the labeling pass."""

    entries: tuple[tuple[float, int], ...]
    complete: bool

    def __post_init__(self):
        tiles = [k for _, k in self.entries]
        if len(set(tiles)) != len(tiles):
            raise ValueError("tile labels must be unique")


@dataclass(frozen=True)
class LabelHypothesis:
    """Ordered tile proposal for one group's descending arrival times."""

    sequence: tuple[int, ...]
    residual: float


@dataclass(frozen=True)
class TraceRow:
    """Diagnostic record of how one group was labeled."""

    group_id: int
    dod: int
    method: str  # exclusive | pair | sort | residual | skipped
    swap_count: int
    residual: float


def build_discriminant(scene: Scene, k1: int, k2: int) -> Discriminant:
    """Hyperboloid parameters for a tile pair, ordered along the RIS axis."""
    if k1 == k2:
        raise ValueError("tile indices must differ")
    if scene.axis_coordinate(k1) > scene.axis_coordinate(k2):
        k1, k2 = k2, k1
    p1 = scene.tiles[k1 - 1].center
    p2 = scene.tiles[k2 - 1].center
    center = 0.5 * (p1 + p2)
    ux = 0.5 * (
        np.linalg.norm(scene.p_bs - p1) - np.linalg.norm(scene.p_bs - p2)
    )
    uy_sq = 0.25 * float(np.dot(p1 - p2, p1 - p2)) - ux * ux
    uy = float(np.sqrt(max(uy_sq, 0.0)))
    degenerate = abs(ux) < 1e-12 or uy_sq < 1e-24
    return Discriminant(
        center=center,
        semi_axes=(float(ux), uy, uy),
        k1=k1,
        k2=k2,
        degenerate=degenerate,
    )


def in_region(p, p_bs, p_k1, p_k2) -> bool:
    """Whether assigning the longer path to the first tile is consistent.

    Distance-difference form of the hyperbolic region: the first tile's total
    path exceeds the second's at position ``p`` iff
    ``|p - p_k1| - |p - p_k2| >= |bs - p_k2| - |bs - p_k1|``.  Boundary points
    count as members.
    """
    p = np.asarray(p, dtype=float)
    lhs = np.linalg.norm(p - p_k1) - np.linalg.norm(p - p_k2)
    rhs = np.linalg.norm(np.asarray(p_bs) - p_k2) - np.linalg.norm(
        np.asarray(p_bs) - p_k1
    )
    return bool(lhs >= rhs)


def in_region_quadric(p, p_bs, p_k1, p_k2) -> bool:
    """Region membership via the explicit hyperboloid branch.

    Kept for validation and plotting; must agree with :func:`in_region` for
    every non-degenerate configuration.  Works in the focal frame of the tile
    pair, so the pair may have any orientation.
    """
    p = np.asarray(p, dtype=float)
    p_k1 = np.asarray(p_k1, dtype=float)
    p_k2 = np.asarray(p_k2, dtype=float)
    p_bs = np.asarray(p_bs, dtype=float)
    center = 0.5 * (p_k1 + p_k2)
    half = 0.5 * np.linalg.norm(p_k2 - p_k1)
    ux = 0.5 * (np.linalg.norm(p_bs - p_k1) - np.linalg.norm(p_bs - p_k2))
    b_sq = half * half - ux * ux
    axis = (p_k2 - p_k1) / (2.0 * half)
    xi = float(np.dot(p - center, axis))
    rho_sq = float(np.dot(p - center, p - center)) - xi * xi
    if abs(ux) < 1e-12 or b_sq < 1e-24:
        # quadric degenerates; threshold 0 reduces to the mid-plane test
        return xi >= 0.0
    f = xi * xi / (ux * ux) - rho_sq / b_sq - 1.0
    if ux < 0.0:
        # threshold positive: region is inside the sheet facing the far tile
        return f >= 0.0 and xi >= 0.0
    # threshold negative: region is everything but inside the near-tile sheet
    return not (f > 0.0 and xi < 0.0)


def label_pair(
    toas: tuple[float, float],
    tiles: tuple[int, int],
    p_estimate,
    scene: Scene,
) -> tuple[int, int]:
    """Assign a descending ToA pair to two tiles using the position estimate.

    Returns ``(tile_for_longer, tile_for_shorter)``.
    """
    if toas[0] < toas[1]:
        raise ValueError("toas must be ordered descending")
    k1, k2 = tiles
    if scene.axis_coordinate(k1) > scene.axis_coordinate(k2):
        k1, k2 = k2, k1
    if in_region(
        p_estimate, scene.p_bs, scene.tiles[k1 - 1].center, scene.tiles[k2 - 1].center
    ):
        return (k1, k2)
    return (k2, k1)


def _hypothesis_consistent(p_est, scene: Scene, tile_long: int, tile_short: int) -> bool:
    return in_region(
        p_est,
        scene.p_bs,
        scene.tiles[tile_long - 1].center,
        scene.tiles[tile_short - 1].center,
    )


def spl_sort(
    group: tuple[tuple[int, ...], np.ndarray],
    p_estimate,
    scene: Scene,
) -> tuple[LabelHypothesis, int]:
    """Bubble-sort a group's label hypothesis with pairwise membership tests.

    ``group`` is (tiles ordered by RIS-axis coordinate, ToAs descending); the
    initial hypothesis maps them index-to-index.  Each adjacent pair whose
    order contradicts the discriminant at ``p_estimate`` is swapped; passes
    repeat until one completes without a swap.  Returns the hypothesis and the
    swap count.
    """
    tiles, toas = group
    m = len(tiles)
    if len(toas) != m or m < 2:
        raise ValueError("group needs matching tile/ToA counts of at least 2")
    seq = list(tiles)
    swaps = 0
    for _ in range(m):
        swapped = False
        for j in range(m - 1):
            if not _hypothesis_consistent(p_estimate, scene, seq[j], seq[j + 1]):
                seq[j], seq[j + 1] = seq[j + 1], seq[j]
                swaps += 1
                swapped = True
        if not swapped:
            break
    return LabelHypothesis(sequence=tuple(seq), residual=float("nan")), swaps


def verify_nonadjacent(
    hypothesis: LabelHypothesis, p_estimate, scene: Scene
) -> bool:
    """Check the sorted hypothesis against all non-adjacent pair regions."""
    seq = hypothesis.sequence
    m = len(seq)
    for a in range(m):
        for b in range(a + 2, m):
            if not _hypothesis_consistent(p_estimate, scene, seq[a], seq[b]):
                return False
    return True


def spl_residual(
    group: tuple[tuple[int, ...], np.ndarray],
    p_estimate,
    scene: Scene,
    toa_ref: float,
    k_ref: int,
    cap: int = 8,
) -> LabelHypothesis:
    """Exhaustive labeling by minimal aggregate range-difference mismatch.

    For each permutation the measured range difference of every arrival
    (relative to the reference path) is compared against the difference the
    candidate tile would produce at ``p_estimate``; the permutation with the
    smallest absolute mismatch sum wins.
    """
    tiles, toas = group
    m = len(tiles)
    if m > cap:
        raise ValueError(
            f"group size {m} exceeds the residual-search cap {cap}; "
            "increase the frame budget or reduce the tile count"
        )
    p_est = np.asarray(p_estimate, dtype=float)
    ref_pos = scene.tiles[k_ref - 1].center
    d_bs_ref = np.linalg.norm(scene.p_bs - ref_pos)
    d_est_ref = np.linalg.norm(p_est - ref_pos)

    centers = {k: scene.tiles[k - 1].center for k in tiles}
    measured = {}
    predicted = {}
    for k in tiles:
        d_bs_k = np.linalg.norm(scene.p_bs - centers[k])
        measured[k] = d_bs_k - d_bs_ref  # subtracted from the ToA difference
        predicted[k] = np.linalg.norm(p_est - centers[k]) - d_est_ref

    best_seq = None
    best_err = np.inf
    for perm in permutations(tiles):
        err = 0.0
        for tau, k in zip(toas, perm):
            gamma = (tau - toa_ref) * SPEED_OF_LIGHT - measured[k]
            err += abs(gamma - predicted[k])
        if err < best_err:
            best_err = err
            best_seq = perm
    return LabelHypothesis(sequence=tuple(best_seq), residual=float(best_err))


class BootstrapError(ValueError):
    """Fewer than three exclusive-slope arrivals: no first position fix."""


def _exclusive_arrivals(
    toa_groups: ToaGroups, assignment: PspAssignment
) -> tuple[list[tuple[float, int]], list[float], list[TraceRow]]:
    """Entries, peak heights and trace rows of the detected singleton groups.

    Raises :class:`BootstrapError` when fewer than three are detected.
    """
    entries, mags, trace = [], [], []
    for i in sorted(assignment.groups):
        tiles = assignment.groups[i]
        if len(tiles) == 1 and i in toa_groups.toas:
            entries.append((float(toa_groups.toas[i][0]), tiles[0]))
            mags.append(float(toa_groups.magnitudes[i][0]))
            trace.append(TraceRow(i, 1, "exclusive", 0, 0.0))
    if len(entries) < 3:
        raise BootstrapError(
            f"bootstrap needs at least 3 exclusive-slope arrivals, got {len(entries)}"
        )
    return entries, mags, trace


def bootstrap_position(
    toa_groups: ToaGroups,
    assignment: PspAssignment,
    scene: Scene,
    room=None,
) -> np.ndarray:
    """First position fix from the exclusive-slope tiles alone (unweighted)."""
    entries, mags, _ = _exclusive_arrivals(toa_groups, assignment)
    return solve_labeled(entries, mags, scene, room, weighted=False)


def _group_resolvable(
    tiles, toas: np.ndarray, p_est, scene: Scene, min_gap: float
) -> bool:
    """Decomposability check of one group against the delay resolution.

    A group fails when its extracted arrivals sit closer than ``min_gap`` or
    when the arrivals its tiles would produce at the current position
    estimate do, i.e. the mainlobes overlap and the extracted peaks cannot be
    per-tile delays.
    """
    if len(toas) > 1 and float(np.min(-np.diff(toas))) < min_gap:
        return False
    p_est = np.asarray(p_est, dtype=float)
    predicted = np.sort(
        [
            np.linalg.norm(scene.p_bs - scene.tiles[k - 1].center)
            + np.linalg.norm(p_est - scene.tiles[k - 1].center)
            for k in tiles
        ]
    ) / SPEED_OF_LIGHT
    return float(np.min(np.diff(predicted))) >= min_gap


def solve_labeled(entries, mags, scene: Scene, room, weighted: bool) -> np.ndarray:
    """Position fix from labeled arrivals ``(toa, tile)``.

    With ``weighted`` each arrival's delay-error scale is the inverse of its
    peak height in ``mags`` (delay error scales inversely with it).
    """
    system = build_system(entries, scene.tile_centers, scene.p_bs)
    if not weighted:
        return solve_position(system, room=room)
    by_tile = {k: m for (_, k), m in zip(entries, mags)}
    sigma_ref = 1.0 / max(by_tile[system.ref_tile], 1e-30)
    sigmas = np.array(
        [1.0 / max(by_tile[k], 1e-30) for _, k in entries if k != system.ref_tile]
    )
    return solve_position(system, room=room, sigmas=sigmas, sigma_ref=sigma_ref)


def run_spl(
    toa_groups: ToaGroups,
    assignment: PspAssignment,
    scene: Scene,
    room=None,
    residual_cap: int = 8,
    min_toa_gap: float | None = None,
    magnitude_weighting: bool = True,
) -> tuple[LabelMap, np.ndarray, list[TraceRow]]:
    """Label every decomposed arrival and refine the position group by group.

    Singleton groups label themselves and bootstrap the position; remaining
    groups are processed in ascending duplication order, each re-solving the
    position with all labels gathered so far.  Under-detected groups are
    skipped, as are groups failing the decomposability check against
    ``min_toa_gap`` (pass a mainlobe width, e.g. 2/bandwidth): arrivals closer
    than that sit inside each other's mainlobes and their peaks carry no
    trustworthy tile-wise delays.  With ``magnitude_weighting`` the position
    solves weight each arrival by its peak height (delay error scales
    inversely with it).  Returns the label map, the final position estimate
    and a trace of the method used per group.
    """
    entries, mags, trace = _exclusive_arrivals(toa_groups, assignment)
    p_est = solve_labeled(entries, mags, scene, room, magnitude_weighting)

    multi = [i for i in assignment.groups if len(assignment.groups[i]) > 1]
    for i in sorted(multi, key=lambda i: (len(assignment.groups[i]), i)):
        tiles = assignment.groups[i]
        dod = len(tiles)
        if i in toa_groups.under_detected or i not in toa_groups.toas:
            trace.append(TraceRow(i, dod, "skipped", 0, float("nan")))
            continue
        toas = toa_groups.toas[i]
        if min_toa_gap is not None and not _group_resolvable(
            tiles, toas, p_est, scene, min_toa_gap
        ):
            trace.append(TraceRow(i, dod, "skipped", 0, float("nan")))
            continue
        ordered = tuple(sorted(tiles, key=lambda k: scene.axis_coordinate(k)))
        if dod == 2:
            first, second = label_pair(
                (float(toas[0]), float(toas[1])), ordered, p_est, scene
            )
            seq = (first, second)
            trace.append(TraceRow(i, dod, "pair", 0, float("nan")))
        else:
            hyp, swaps = spl_sort((ordered, toas), p_est, scene)
            if verify_nonadjacent(hyp, p_est, scene):
                seq = hyp.sequence
                trace.append(TraceRow(i, dod, "sort", swaps, float("nan")))
            else:
                ref_toa, ref_tile = min(entries, key=lambda e: (e[0], e[1]))
                hyp = spl_residual(
                    (ordered, toas), p_est, scene, ref_toa, ref_tile, cap=residual_cap
                )
                seq = hyp.sequence
                trace.append(TraceRow(i, dod, "residual", swaps, hyp.residual))
        entries.extend((float(t), k) for t, k in zip(toas, seq))
        mags.extend(float(m) for m in toa_groups.magnitudes[i])
        p_est = solve_labeled(entries, mags, scene, room, magnitude_weighting)

    label_map = LabelMap(
        entries=tuple(entries), complete=len(entries) == scene.n_tiles
    )
    return label_map, p_est, trace


def trace_to_csv(trace: list[TraceRow], path) -> None:
    """Dump the per-group labeling trace for diagnostics."""
    write_csv(
        path,
        ["group_id", "dod", "method", "swap_count", "residual"],
        ((row.group_id, row.dod, row.method, row.swap_count, row.residual)
         for row in trace),
    )
