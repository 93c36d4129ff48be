"""Path labeling: matching extracted arrival times to reflecting tiles.

Tiles with exclusive slopes label themselves and give the anchors-only fix.
Within a slope-sharing group the descending arrival times are matched to the
tiles geometrically, at that one fix, and the labeled set is solved once.
The paper's pairwise discriminant (:func:`in_region`) asks, at a position
estimate, whether one tile's predicted BS -> tile -> UE path is longer than
the other's; the positions where it is are bounded by a hyperboloid with the
two tiles as foci (:func:`in_region_quadric`).  Since the discriminant
compares one scalar per tile, sorting a group by adjacent pairwise tests is a
sort by predicted path length, and :func:`spl_sort` does that sort for groups
of every size.  A labeled list is a list of ``(toa, tile)`` entries; every
one :func:`run_spl` returns was last passed through
:func:`ris_nfloc.tdoa.build_system`, which rejects a repeated tile.  The one
geometry every labeler and solve here takes is the config's
:class:`~ris_nfloc.deployment.Deployment`: the tile centers, the BS, its
legs and the seed lattice, all known before a trial; the UE's true position
and clock offset never reach them.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .constants import SPEED_OF_LIGHT
from .deployment import Deployment
from .psp import PspAssignment
from .spectrum import ToaGroups
from .tdoa import build_system, solve_position


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

    Kept for validation; must agree with :func:`in_region` for
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
    if b_sq < 1e-24:
        # BS on the tile line outside the pair: the region is all of space,
        # or it collapses to the ray beyond the far tile
        return ux > 0.0 or (xi >= half and rho_sq <= 1e-24)
    if abs(ux) < 1e-12:
        # threshold 0 reduces to the mid-plane test
        return xi >= 0.0
    f = xi * xi / (ux * ux) - rho_sq / b_sq - 1.0
    if ux < 0.0:
        # threshold positive: region is inside the sheet facing the far tile
        return f >= 0.0 and xi >= 0.0
    # threshold negative: region is everything but inside the near-tile sheet
    return not (f > 0.0 and xi < 0.0)


def _path_lengths(tiles, p_est, dep: Deployment) -> np.ndarray:
    """Predicted BS -> tile -> UE path length of each tile at ``p_est`` (m)."""
    rows = np.asarray(tiles) - 1
    return dep.bs_legs[rows] + np.linalg.norm(
        np.asarray(p_est, dtype=float) - dep.tile_centers[rows], axis=1
    )


def spl_sort(tiles, p_estimate, dep: Deployment) -> tuple[int, ...]:
    """The tiles of a shared slope group in the order of its descending ToAs.

    Sorts by predicted path length at ``p_estimate``, longest first, with
    ties kept in tile order (a :class:`~ris_nfloc.geometry.RisLayout` places
    tile k at an offset along its axis that increases with k, so that is the
    order along the RIS), so every ordered pair (a before b) of the result
    passes ``in_region(p_estimate, bs, a, b)``.
    """
    ordered = np.sort(tiles)
    lengths = _path_lengths(ordered, p_estimate, dep)
    return tuple(int(k) for k in ordered[np.argsort(-lengths, kind="stable")])


def _exclusive_arrivals(
    toa_groups: ToaGroups, assignment: PspAssignment
) -> tuple[list[tuple[float, int]], list[float], list[TraceRow]]:
    """Entries, peak heights and trace rows of the detected singleton groups."""
    entries, mags, trace = [], [], []
    for i in sorted(assignment.groups):
        tiles = assignment.groups[i]
        if len(tiles) == 1 and i in toa_groups.toas:
            entries.append((toa_groups.toas[i].item(0), tiles[0]))
            mags.append(toa_groups.magnitudes[i].item(0))
            trace.append(TraceRow(i, 1, "exclusive"))
    return entries, mags, trace


def _group_resolvable(
    tiles, toas: np.ndarray, p_est, dep: Deployment, min_gap: float
) -> bool:
    """Decomposability check of one group against the delay resolution.

    A group fails when its extracted arrivals sit closer than ``min_gap`` or
    when the arrivals its tiles would produce at the position estimate
    ``p_est`` do, i.e. the mainlobes overlap and the extracted peaks cannot be
    per-tile delays.
    """
    if len(toas) > 1 and float(np.min(-np.diff(toas))) < min_gap:
        return False
    predicted = np.sort(_path_lengths(tiles, p_est, dep)) / SPEED_OF_LIGHT
    return float(np.min(np.diff(predicted))) >= min_gap


def solve_labeled(entries, mags, dep: Deployment) -> np.ndarray:
    """Position fix from labeled arrivals ``(toa, tile)`` with peak heights
    ``mags`` on the tiles and seed lattice of ``dep``; the system weighs each
    arrival by its height relative to the largest, and the solve concentrates
    out the clock offset (:func:`ris_nfloc.tdoa.build_system`).  Every height
    is positive (a strict local maximum of its column, or a pencil height
    above the column's noise floor).
    """
    return solve_position(
        build_system(entries, mags, dep.tile_centers, dep.p_bs), dep.lattice
    )


def run_spl(
    toa_groups: ToaGroups,
    assignment: PspAssignment,
    dep: Deployment,
    min_toa_gap: float,
) -> tuple[list[tuple[float, int]], np.ndarray, list[TraceRow]]:
    """Label every decomposed arrival at the anchors-only fix, then solve once.

    Singleton groups label themselves and give the anchors-only fix.  Every
    shared group is decided at that one fix, in ascending duplication order
    and then slope index: :func:`spl_sort` labels it unless it is
    under-detected or fails the decomposability check against
    ``min_toa_gap`` (a mainlobe width in seconds, e.g. 2/bandwidth):
    arrivals closer than that sit inside each other's mainlobes and their
    peaks carry no trustworthy tile-wise delays.  If any shared group was
    labeled, the whole labeled set is solved once more; otherwise the
    anchors-only fix is returned.  A gap of 0 labels every detected group;
    ``np.inf`` skips every shared group.  Every position solve runs on the
    tiles and seed lattice of ``dep`` and weights each arrival by its peak
    height (see :func:`solve_labeled`).  Returns the labeled entries
    ``(toa, tile)``, the final position estimate and a trace of the method
    used per group.  Fewer than three detected exclusive-slope arrivals
    raise :class:`ris_nfloc.tdoa.BootstrapError` from the first solve.
    """
    entries, mags, trace = _exclusive_arrivals(toa_groups, assignment)
    fix = solve_labeled(entries, mags, dep)
    anchors = len(entries)

    multi = [i for i in assignment.groups if len(assignment.groups[i]) > 1]
    for i in sorted(multi, key=lambda i: (len(assignment.groups[i]), i)):
        tiles = assignment.groups[i]
        dod = len(tiles)
        toas = toa_groups.toas.get(i)
        if toas is None or not _group_resolvable(tiles, toas, fix, dep, min_toa_gap):
            trace.append(TraceRow(i, dod, "skipped"))
            continue
        trace.append(TraceRow(i, dod, "pair" if dod == 2 else "sort"))
        entries.extend(zip(toas.tolist(), spl_sort(tiles, fix, dep)))
        mags.extend(toa_groups.magnitudes[i].tolist())

    if len(entries) > anchors:
        fix = solve_labeled(entries, mags, dep)
    return entries, fix, trace
