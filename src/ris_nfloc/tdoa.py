"""Position estimation from labeled arrival times.

Differencing every labeled arrival against the smallest one cancels the
unknown clock offset and leaves range differences to the anchor tiles, each
weighted by its arrival's peak height relative to the reference arrival's;
the system carries those weights, so a solve takes no scales.  The UE lies
on the floor (z = 0) of a known room, so the position is fitted over the
room's floor by one damped Gauss-Newton descent that starts at the lowest
point of the cost on a floor lattice; each step is an active-set Newton step
that holds a coordinate on a wall the gradient pushes against, and the
descent stops when its next step would be shorter than 10 nm.  The seed
lattice carries the room it was built for and its table of lattice-to-tile
distances, which the lattice cost indexes by the system's tile rows; a
deployment builds it once per config.
This one fit serves every anchor set the simulator builds: a linear RIS gives
collinear anchors, which leave the classic linear two-step TDoA system rank
deficient.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .constants import SPEED_OF_LIGHT


class PositionEstimationError(RuntimeError):
    """Raised when the Gauss-Newton descent does not converge within its
    iteration budget, resumed once; ``best_estimate`` holds its endpoint."""

    def __init__(self, message: str, best_estimate: np.ndarray):
        super().__init__(message)
        self.best_estimate = best_estimate


class BootstrapError(ValueError):
    """Fewer than three labeled arrivals: no position fix can be formed."""


@dataclass(frozen=True)
class TdoaSystem:
    """Range differences of the labeled anchors relative to the reference,
    and the weights of their residuals."""

    ref_tile: int
    ref_pos: np.ndarray
    anchor_positions: np.ndarray  # (rows, 3) non-reference anchors
    gammas: np.ndarray  # (rows,) range differences of non-reference anchors
    anchor_rows: np.ndarray  # (rows,) tile rows (tile index - 1) of the anchors
    dinv: np.ndarray  # (rows,) inverse squared delay-error scales
    k: float  # weight of the reference arrival's common-mode term


def build_system(labels, heights, tile_positions: np.ndarray, p_bs) -> TdoaSystem:
    """Form the range differences of labeled arrivals and their weights.

    ``labels`` is an iterable of ``(toa_seconds, tile_index)`` pairs and
    ``heights`` their positive spectral peak heights, in the same order;
    ``tile_positions`` holds all tile centers with tile index k (1-based) at
    row k-1; the system records its anchors' rows.  Fewer than three labels
    raise :class:`BootstrapError`: this is the one check of that rule.  The
    reference is the labeled tile with the smallest arrival time.  Range
    differences are formed as ``c*(toa_k - toa_ref) - (d_bs_k - d_bs_ref)``
    so the clock offset and the known BS legs both cancel.

    A delay error scales inversely with its peak height, so each arrival's
    error scale is ``height_ref / height``, 1 for the reference, and the fix
    depends on ratios of heights, not on their common scale.  The reference
    arrival's error is common to every residual, so their covariance is
    ``diag(1/dinv) + 1 1^T``; by the Sherman-Morrison identity its inverse is
    ``D - k * (D 1)(D 1)^T`` with ``D = diag(dinv)`` and
    ``k = 1 / (1 + sum(dinv))``.
    """
    entries = list(labels)
    if len(entries) < 3:
        raise BootstrapError(f"need at least 3 labeled arrivals, got {len(entries)}")
    tile_list = [int(t) for _, t in entries]
    if len(set(tile_list)) != len(tile_list):
        raise ValueError("duplicate tile labels")
    tiles = np.array(tile_list)
    toas = np.array([t for t, _ in entries], dtype=float)
    heights = np.asarray(heights, dtype=float)
    positions = np.asarray(tile_positions, dtype=float)[tiles - 1]
    to_bs = np.asarray(p_bs, dtype=float) - positions
    d_bs = np.sqrt(np.einsum("ij,ij->i", to_bs, to_bs))

    ref_i = int(np.lexsort((tiles, toas))[0])  # smallest ToA, then tile index
    ref_tile = int(tiles[ref_i])
    ref_pos = positions[ref_i]
    rest = np.arange(len(entries)) != ref_i
    gammas = (toas[rest] - toas[ref_i]) * SPEED_OF_LIGHT - (d_bs[rest] - d_bs[ref_i])
    dinv = 1.0 / np.maximum(heights[ref_i] / heights[rest], 1e-30) ** 2
    return TdoaSystem(
        ref_tile=ref_tile,
        ref_pos=ref_pos,
        anchor_positions=positions[rest],
        gammas=gammas,
        anchor_rows=tiles[rest] - 1,
        dinv=dinv,
        k=1.0 / (1.0 + float(np.sum(dinv))),
    )


def _gn_descend(
    system: TdoaSystem,
    start_xy: np.ndarray,
    room,
    max_iter: int,
) -> tuple[np.ndarray, float, bool]:
    """Clamped, damped Gauss-Newton from one start; returns (p, cost, done).

    The arrays are tiny (one row per anchor), so the step is written to keep
    numpy calls few: distances and residuals of the accepted point are reused
    for the next Jacobian, the rank-one whitening is folded into the 2x2
    normal equations, and the damped system is solved in closed form.

    ``start_xy`` must lie in the room's floor rectangle, and every trial
    point is clamped to it.  The step is an active-set (projected) Newton
    step, after Bertsekas (SIAM J. Control Optim. 20(2), 1982): a coordinate
    that sits on a wall while the gradient pushes it out of the room is held,
    and the step is the damped 1-D Newton step in the other coordinate, so a
    descent slides along a wall instead of crawling there by clamped 2-D
    steps.  A corner that holds both coordinates meets the KKT conditions and
    is returned as converged, as is a point whose next clamped step is
    shorter than 1e-8 m, tested before that step is evaluated: a cost
    comparison cannot resolve a shorter move (Madsen, Nielsen & Tingleff,
    "Methods for Non-Linear Least Squares Problems", 2004, sec. 3.2).
    """
    anchors = system.anchor_positions
    anchor_xy = anchors[:, :2]
    dz2 = anchors[:, 2] ** 2  # the UE is on the floor, z = 0
    ref_x, ref_y, ref_z = system.ref_pos.tolist()
    ref_dz2 = ref_z ** 2
    gammas = system.gammas
    dinv = system.dinv
    k = system.k
    dinv_col = dinv[:, None]

    def evaluate(x, y):
        """Offsets, distances, residuals, whitened residual sum and cost."""
        diff = np.array((x, y)) - anchor_xy
        sq = diff * diff
        d = np.sqrt(sq[:, 0] + sq[:, 1] + dz2)
        d_ref = math.sqrt((x - ref_x) ** 2 + (y - ref_y) ** 2 + ref_dz2)
        r = gammas - (d - d_ref)
        q_sum = float(dinv @ r)
        return diff, d, d_ref, r, q_sum, float((dinv * r) @ r) - k * q_sum * q_sum

    x, y = float(start_xy[0]), float(start_xy[1])
    lo_x, lo_y = float(room[0][0]), float(room[0][1])
    hi_x, hi_y = float(room[1][0]), float(room[1][1])

    lam = 1e-3
    diff, d, d_ref, r, q_sum, cost = evaluate(x, y)
    for _ in range(max_iter):
        # d(residual)/d(p) = -(unit_k - unit_ref), restricted to x, y
        d_ref = max(d_ref, 1e-12)
        unit_ref = np.array(((x - ref_x) / d_ref, (y - ref_y) / d_ref))
        jac = unit_ref - diff / np.maximum(d, 1e-12)[:, None]
        w = dinv_col * jac
        (h_xx, h_xy), (_, h_yy) = (w.T @ jac).tolist()
        g_x, g_y = (r @ w).tolist()
        s_x, s_y = (dinv @ jac).tolist()
        h_xx -= k * s_x * s_x
        h_xy -= k * s_x * s_y
        h_yy -= k * s_y * s_y
        g_x -= k * s_x * q_sum
        g_y -= k * s_y * q_sum
        # the step -g points out of the room across a wall it sits on
        hold_x = (x <= lo_x and g_x > 0.0) or (x >= hi_x and g_x < 0.0)
        hold_y = (y <= lo_y and g_y > 0.0) or (y >= hi_y and g_y < 0.0)
        if hold_x and hold_y:
            return np.array([x, y, 0.0]), cost, True
        while lam < 1e14:
            a = h_xx + lam
            c = h_yy + lam
            if hold_x:
                det, num_x, num_y = c, 0.0, g_y
            elif hold_y:
                det, num_x, num_y = a, g_x, 0.0
            else:
                det = a * c - h_xy * h_xy
                num_x, num_y = c * g_x - h_xy * g_y, a * g_y - h_xy * g_x
            if det == 0.0:
                lam *= 10.0
                continue
            tx = min(max(x - num_x / det, lo_x), hi_x)
            ty = min(max(y - num_y / det, lo_y), hi_y)
            if math.hypot(tx - x, ty - y) < 1e-8:
                return np.array([x, y, 0.0]), cost, True
            trial = evaluate(tx, ty)
            if trial[-1] <= cost:
                x, y = tx, ty
                diff, d, d_ref, r, q_sum, cost = trial
                lam = max(lam / 10.0, 1e-12)
                break
            lam *= 10.0
        else:
            # damping exhausted: gradient numerically stationary
            return np.array([x, y, 0.0]), cost, True
    return np.array([x, y, 0.0]), cost, False


_SEED_SPACINGS = 20  # lattice spacings per floor axis: 0.5 m on a 10 m room
_MAX_ITER = 100  # Gauss-Newton iterations per descent, and again per resume


@dataclass(frozen=True)
class SeedLattice:
    """The seed lattice of a room and its distances to a set of tiles.

    ``room`` is the ``(min_xyz, max_xyz)`` box whose floor rectangle bounds
    every solve on this lattice.  ``points`` (P, 2) are the interior points
    of a lattice over that floor, ``_SEED_SPACINGS`` spacings per axis, so
    one spacing off every wall, x-major.  ``distances`` (P, T) holds the
    distance of each point, on the floor (z = 0), to each of T tile
    positions.
    """

    room: tuple
    points: np.ndarray
    distances: np.ndarray


def seed_lattice(room, tile_positions) -> SeedLattice:
    """The seed lattice of ``room`` with its distances to ``tile_positions``
    (T, 3); one lattice serves every solve over those tiles in that room."""
    n = _SEED_SPACINGS - 1
    axes = [np.linspace(room[0][i], room[1][i], n + 2)[1:-1] for i in (0, 1)]
    points = np.stack(np.meshgrid(*axes, indexing="ij"), axis=-1).reshape(-1, 2)
    tiles = np.asarray(tile_positions, dtype=float)
    diff = points[:, None, :] - tiles[:, :2]
    distances = np.sqrt(np.einsum("pti,pti->pt", diff, diff) + tiles[:, 2] ** 2)
    return SeedLattice(room=room, points=points, distances=distances)


def _lattice_seed(system: TdoaSystem, lattice: SeedLattice) -> np.ndarray:
    """The floor point of the lowest finite cost on a lattice.

    The whitened cost of :func:`_gn_descend` is evaluated in one pass on the
    points of ``lattice``, whose distance table is indexed by the system's
    tile rows (``ref_tile - 1`` and ``anchor_rows``).  Ties go to the first
    point in lattice order, and NaN or infinite costs are skipped.  Raises
    ValueError when no cost is finite, as when a non-finite arrival makes
    every cost NaN.
    """
    d = lattice.distances[:, system.anchor_rows]
    d_ref = lattice.distances[:, system.ref_tile - 1]
    r = system.gammas - (d - d_ref[:, None])
    q_sum = r @ system.dinv
    cost = (r * r) @ system.dinv - system.k * q_sum * q_sum
    finite = np.isfinite(cost)
    if not finite.any():
        raise ValueError("the seed lattice has no finite local minimum of the cost")
    return lattice.points[np.argmin(np.where(finite, cost, np.inf))]


def solve_position(system: TdoaSystem, lattice: SeedLattice) -> np.ndarray:
    """Estimate the UE's floor position from a built system.

    ``lattice`` is the :func:`seed_lattice` of the room for the tile
    positions the system was built from, such as a deployment's; the floor
    rectangle of its room bounds the fit, and its table is indexed by the
    system's tile rows.  One Gauss-Newton descent starts from the lowest
    point of the cost on its 19 x 19 lattice of interior floor points (20
    spacings per axis).  Every iterate stays in the room, and a coordinate
    on a wall that the gradient pushes against is held (an active-set step).
    The descent converges once its next clamped step is shorter than 10 nm;
    if it does not within ``_MAX_ITER`` iterations, it is resumed once from
    its endpoint.  The endpoint is returned with z = 0.  Raises
    :class:`PositionEstimationError` with that endpoint if the resumed
    descent does not converge either, and ValueError before any descent if
    no lattice point has a finite cost: no trial of such a config can be
    run, so it is not a censored fit.

    The fit is the generalized least squares of the system's weights
    (:func:`build_system`): peak heights relative to the reference
    arrival's, whose error is common to every residual.  The weights carry
    no absolute scale, which the descent's absolute damping constants need.
    """
    p = _lattice_seed(system, lattice)
    for _ in range(2):  # the descent, then its one resume
        p, _, converged = _gn_descend(system, p[:2], lattice.room, _MAX_ITER)
        if converged:
            return p
    raise PositionEstimationError("position fit did not converge", best_estimate=p)
