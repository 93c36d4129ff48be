"""Position estimation from labeled arrival times.

Each labeled arrival gives one range to its tile: its delay past the
earliest arrival, less the known BS leg, which leaves the UE-to-tile distance
plus one offset common to every arrival, ``c*(t0 - min(toa))`` with t0 the
unknown clock offset.  Each range is weighted by its arrival's peak height
relative to the largest; the system carries those weights, so a solve takes
no scales.  The fit is the weighted least squares of the ranges with the
common offset concentrated out.  The UE lies on the floor (z = 0) of a known
room, so the position is fitted over the room's floor by one damped
Gauss-Newton descent that starts at the lowest point of the cost on a floor
lattice; each step is an active-set Newton step that holds a coordinate on a
wall the gradient pushes against, and the descent stops when its next step
would be shorter than 10 nm.  The seed lattice carries the room it was built
for and its table of lattice-to-tile distances, which the lattice cost
indexes by the system's tile rows; a deployment builds it once per config.
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
    iteration budget; ``best_estimate`` holds its endpoint."""

    def __init__(self, message: str, best_estimate: np.ndarray):
        super().__init__(message)
        self.best_estimate = best_estimate


class BootstrapError(ValueError):
    """Fewer than three labeled arrivals: no position fix can be formed."""


@dataclass(frozen=True)
class TdoaSystem:
    """One range per labeled arrival, and the weight of its residual."""

    rows: np.ndarray  # (n,) tile rows (tile index - 1) of the arrivals
    positions: np.ndarray  # (n, 3) their tile centers
    ranges: np.ndarray  # (n,) ranges to the tiles, up to one common offset
    w: np.ndarray  # (n,) weights of the range residuals


def build_system(labels, heights, tile_positions: np.ndarray, p_bs) -> TdoaSystem:
    """Form the ranges of labeled arrivals and their weights.

    ``labels`` is an iterable of ``(toa_seconds, tile_index)`` pairs and
    ``heights`` their positive spectral peak heights, in the same order;
    ``tile_positions`` holds all tile centers with tile index k (1-based) at
    row k-1; the system records each arrival's row.  Fewer than three labels
    raise :class:`BootstrapError`: this is the one check of that rule.  Each
    range is ``c*(toa - min(toa)) - d_bs``, with the known BS leg ``d_bs``
    taken off: the UE-to-tile distance plus the offset ``c*(t0 - min(toa))``
    common to every arrival, t0 the unknown clock offset.

    A delay error scales inversely with its peak height, so each residual is
    weighted ``(height / max(height))**2``, and the fix depends on ratios of
    heights, not on their common scale.
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
    return TdoaSystem(
        rows=tiles - 1,
        positions=positions,
        ranges=(toas - toas.min()) * SPEED_OF_LIGHT - d_bs,
        w=(heights / heights.max()) ** 2,
    )


def _gn_descend(
    system: TdoaSystem,
    start_xy: np.ndarray,
    room,
    max_iter: int,
) -> tuple[np.ndarray, float, bool]:
    """Clamped, damped Gauss-Newton from one start; returns (p, cost, done).

    The cost is ``sum(w * (e - mean(e))**2)`` over the range residuals
    ``e = ranges - |p - tile|``, ``mean`` weighted by ``w``: the weighted
    least squares of the ranges with their common offset concentrated out
    (Golub & Pereyra's separable least squares, one linear parameter).  It
    is formed centered, since every residual carries the metres of that
    offset.  Its Gauss-Newton model takes the Jacobian rows centered on
    their weighted mean in the same way.

    The arrays are tiny (one row per arrival), so the step is written to keep
    numpy calls few: distances and residuals of the accepted point are reused
    for the next Jacobian, and the damped 2x2 system is solved in closed form.

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
    tile_xy = system.positions[:, :2]
    dz2 = system.positions[:, 2] ** 2  # the UE is on the floor, z = 0
    ranges = system.ranges
    w = system.w
    w_mean = w / float(np.add.reduce(w))  # the weights of the weighted mean
    w_col = w[:, None]

    def evaluate(x, y):
        """Offsets, distances, centered residuals and cost."""
        diff = np.subtract((x, y), tile_xy)
        sq = diff * diff
        d = np.sqrt(sq[:, 0] + sq[:, 1] + dz2)
        e = ranges - d
        e -= w_mean @ e
        return diff, d, e, float((w * e) @ e)

    x, y = float(start_xy[0]), float(start_xy[1])
    lo_x, lo_y = float(room[0][0]), float(room[0][1])
    hi_x, hi_y = float(room[1][0]), float(room[1][1])

    lam = 1e-3
    diff, d, e, cost = evaluate(x, y)
    for _ in range(max_iter):
        # d(residual)/d(p) = -unit_k, restricted to x, y, centered like e
        jac = diff / np.maximum(d, 1e-12)[:, None]
        jac -= w_mean @ jac
        wj = w_col * jac
        (h_xx, h_xy), (_, h_yy) = (wj.T @ jac).tolist()
        g_x, g_y = (e @ wj).tolist()
        g_x, g_y = -g_x, -g_y
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
                diff, d, e, cost = trial
                lam = max(lam / 10.0, 1e-12)
                break
            lam *= 10.0
        else:
            # damping exhausted: gradient numerically stationary
            return np.array([x, y, 0.0]), cost, True
    return np.array([x, y, 0.0]), cost, False


_SEED_SPACINGS = 20  # lattice spacings per floor axis: 0.5 m on a 10 m room
_MAX_ITER = 200  # Gauss-Newton iterations of a solve's one descent


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

    The cost of :func:`_gn_descend` is evaluated in one pass on the points of
    ``lattice``, whose distance table is indexed by the system's tile rows.
    Ties go to the first point in lattice order, and NaN or infinite costs
    are skipped.  Raises ValueError when no cost is finite, as when a
    non-finite arrival makes every cost NaN.
    """
    e = system.ranges - lattice.distances[:, system.rows]
    e -= (e @ system.w / np.add.reduce(system.w))[:, None]
    cost = (e * e) @ system.w
    finite = np.isfinite(cost)
    if not finite.any():
        raise ValueError("the seed lattice has no finite local minimum of the cost")
    return lattice.points[np.where(finite, cost, np.inf).argmin()]


def solve_position(system: TdoaSystem, lattice: SeedLattice) -> np.ndarray:
    """Estimate the UE's floor position from a built system.

    ``lattice`` is the :func:`seed_lattice` of the room for the tile
    positions the system was built from, such as a deployment's; the floor
    rectangle of its room bounds the fit, and its table is indexed by the
    system's tile rows.  One Gauss-Newton descent starts from the lowest
    point of the cost on its 19 x 19 lattice of interior floor points (20
    spacings per axis).  Every iterate stays in the room, and a coordinate
    on a wall that the gradient pushes against is held (an active-set step).
    The descent converges once its next clamped step is shorter than 10 nm,
    and its endpoint is returned with z = 0.  Raises
    :class:`PositionEstimationError` with that endpoint if it does not
    converge within ``_MAX_ITER`` iterations, and ValueError before any
    descent if no lattice point has a finite cost: no trial of such a config
    can be run, so it is not a censored fit.

    The fit is the weighted least squares of the system's ranges with their
    common offset, which holds the clock offset, concentrated out; the
    weights are squared peak heights relative to the largest
    (:func:`build_system`), so they carry no absolute scale, which the
    descent's absolute damping constants need.
    """
    seed = _lattice_seed(system, lattice)
    p, _, converged = _gn_descend(system, seed, lattice.room, _MAX_ITER)
    if not converged:
        raise PositionEstimationError("position fit did not converge", best_estimate=p)
    return p
