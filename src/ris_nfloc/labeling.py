"""Path labeling: matching extracted arrival times to reflecting tiles.

Tiles with exclusive slopes label themselves and seed a first position fix.
Within a slope-sharing group the descending arrival times are matched to the
tiles geometrically.  The paper's pairwise discriminant (:func:`in_region`)
asks, at the position estimate, whether one tile's predicted BS -> tile -> UE
path is longer than the other's; the positions where it is are bounded by a
hyperboloid with the two tiles as foci (:func:`in_region_quadric`).  Since the
discriminant compares one scalar per tile, sorting a group by adjacent
pairwise tests is a sort by predicted path length, and :func:`spl_sort` does
that sort for groups of every size.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .constants import SPEED_OF_LIGHT
from .geometry import Scene
from .psp import PspAssignment
from .spectrum import ToaGroups
from .tdoa import build_system, solve_position


@dataclass(frozen=True)
class LabelMap:
    """Arrival-time-to-tile assignment produced by the labeling pass."""

    entries: tuple[tuple[float, int], ...]

    def __post_init__(self):
        tiles = [k for _, k in self.entries]
        if len(set(tiles)) != len(tiles):
            raise ValueError("tile labels must be unique")


@dataclass(frozen=True)
class TraceRow:
    """Diagnostic record of how one group was labeled."""

    group_id: int
    dod: int
    method: str  # exclusive | pair | sort | skipped


def in_region(p, p_bs, p_k1, p_k2) -> bool:
    """Whether the first tile's predicted path is at least the second's.

    Compares the predicted BS -> tile -> UE path lengths at position ``p``,
    ``|bs - p_k1| + |p - p_k1| >= |bs - p_k2| + |p - p_k2|``, in the
    distance-difference form ``|p - p_k1| - |p - p_k2| >= |bs - p_k2| -
    |bs - p_k1|`` whose boundary is a hyperboloid with the two tiles as foci.
    When it holds, the first tile takes the later arrival of the pair.
    Boundary points count as members.
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


def _path_lengths(tiles, p_est, scene: Scene) -> np.ndarray:
    """Predicted BS -> tile -> UE path length of each tile at ``p_est`` (m)."""
    centers = np.array([scene.tiles[k - 1].center for k in tiles])
    return np.linalg.norm(scene.p_bs - centers, axis=1) + np.linalg.norm(
        np.asarray(p_est, dtype=float) - centers, axis=1
    )


def spl_sort(tiles, p_estimate, scene: Scene) -> tuple[int, ...]:
    """The tiles of a shared slope group in the order of its descending ToAs.

    Sorts by predicted path length at ``p_estimate``, longest first, with
    ties kept in RIS-axis order, so every ordered pair (a before b) of the
    result passes ``in_region(p_estimate, bs, a, b)``.
    """
    ordered = sorted(tiles, key=scene.axis_coordinate)
    lengths = _path_lengths(ordered, p_estimate, scene)
    return tuple(ordered[j] for j in np.argsort(-lengths, kind="stable"))


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
            trace.append(TraceRow(i, 1, "exclusive"))
    if len(entries) < 3:
        raise BootstrapError(
            f"bootstrap needs at least 3 exclusive-slope arrivals, got {len(entries)}"
        )
    return entries, mags, trace


def bootstrap_position(
    toa_groups: ToaGroups,
    assignment: PspAssignment,
    scene: Scene,
    room,
) -> np.ndarray:
    """First position fix from the exclusive-slope tiles alone.

    This is the weighted fix :func:`run_spl` starts from, bit for bit.
    """
    entries, mags, _ = _exclusive_arrivals(toa_groups, assignment)
    return solve_labeled(entries, mags, scene, room)


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
    predicted = np.sort(_path_lengths(tiles, p_est, scene)) / SPEED_OF_LIGHT
    return float(np.min(np.diff(predicted))) >= min_gap


def solve_labeled(entries, mags, scene: Scene, room) -> np.ndarray:
    """Position fix in ``room`` from labeled arrivals ``(toa, tile)``.

    Each arrival's delay-error scale is the inverse of its peak height in
    ``mags`` (delay error scales inversely with it).
    """
    system = build_system(entries, scene.tile_centers, scene.p_bs)
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
    room,
    min_toa_gap: float | None = None,
) -> tuple[LabelMap, np.ndarray, list[TraceRow]]:
    """Label every decomposed arrival and refine the position group by group.

    Singleton groups label themselves and bootstrap the position; remaining
    groups are processed in ascending duplication order, each re-solving the
    position with all labels gathered so far; :func:`spl_sort` labels each
    shared group.  Under-detected groups are skipped, as are groups failing
    the decomposability check against ``min_toa_gap`` (pass a mainlobe width,
    e.g. 2/bandwidth): arrivals closer than that sit inside each other's
    mainlobes and their peaks carry no trustworthy tile-wise delays.  Every
    position solve runs in ``room`` and weights each arrival by its peak
    height (delay error scales inversely with it).  Returns the label map,
    the final position estimate and a trace of the method used per group.
    """
    entries, mags, trace = _exclusive_arrivals(toa_groups, assignment)
    p_est = solve_labeled(entries, mags, scene, room)

    multi = [i for i in assignment.groups if len(assignment.groups[i]) > 1]
    for i in sorted(multi, key=lambda i: (len(assignment.groups[i]), i)):
        tiles = assignment.groups[i]
        dod = len(tiles)
        if i in toa_groups.under_detected or i not in toa_groups.toas:
            trace.append(TraceRow(i, dod, "skipped"))
            continue
        toas = toa_groups.toas[i]
        if min_toa_gap is not None and not _group_resolvable(
            tiles, toas, p_est, scene, min_toa_gap
        ):
            trace.append(TraceRow(i, dod, "skipped"))
            continue
        seq = spl_sort(tiles, p_est, scene)
        trace.append(TraceRow(i, dod, "pair" if dod == 2 else "sort"))
        entries.extend((float(t), k) for t, k in zip(toas, seq))
        mags.extend(float(m) for m in toa_groups.magnitudes[i])
        p_est = solve_labeled(entries, mags, scene, room)

    return LabelMap(entries=tuple(entries)), p_est, trace
