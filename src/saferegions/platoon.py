"""Vehicle-platoon emergency braking simulator.

A platoon of one leader and N followers cruises at steady speed; at t = 0 the
leader applies a constant braking force F0 < 0 and broadcasts a notification.
Each follower keeps cruising (applied force exactly cancelling rolling and
drag resistance) until it receives the notification, which takes the network
delay plus one time step per lost packet, then brakes with gain * F0.
Longitudinal dynamics per vehicle:

    dv/dt = (F - a_roll - b_drag * v^2) / m,   v clamped at 0 (no reversing)
    dd/dt = v_front - v_self                    for each spacing

integrated with the explicit Euler rule.  A run is labelled unsafe (-1) when
any spacing falls to the collision distance within the horizon, safe (+1)
otherwise.  A scenario is one feature row (layout in ``_fill_row``) plus a
row of reception steps, the step at which each follower starts braking; the
constants every scenario shares form one ``Physics`` record.  Simulations are
vectorized across a batch that shrinks as it runs: each Euler step works only
on the active set, the scenarios with no collision yet and at least one
vehicle still moving.  A scenario leaves the set on the step it collides or
fully stops (or never enters it when it is finished at t = 0), and its speeds
are checked for non-finite values as it leaves.  Every scenario goes through
the same floating-point operations as it would alone, so batch labels equal
single-scenario labels bit for bit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields

import numpy as np

from .datagen import Dataset
from .errors import InvalidArgument, SimulationError
from .validation import checked_int, checked_real

__all__ = ["PlatoonRanges", "generate_platoon_dataset", "FEATURE_DIM"]

MAX_FOLLOWERS = 8
FEATURE_DIM = 40   # 1 + 8 gaps + 9 speeds + 9 accels + 1 force + 9 masses + 3 comms


@dataclass(frozen=True)
class Physics:
    """Physical constants of a simulation; generation always uses the
    defaults, and only tests set others."""

    time_step: float = 0.01             # s
    horizon: float = 30.0               # s
    rolling_resistance: float = 100.0   # N
    drag_coefficient: float = 0.5       # N s^2 / m^2
    collision_distance: float = 2.0     # m


@dataclass(frozen=True)
class PlatoonRanges:
    """Sampling ranges for scenario generation (defaults for a heavy-vehicle
    platoon; inclusive bounds, uniform draws).  Every scenario drawn from
    ranges that construct has finite features, non-negative speeds, delay
    and gain, positive masses, a non-positive braking force and a packet
    error rate in [0, 1)."""

    n_followers: tuple = (3, 8)
    gap: tuple = (4.0, 9.0)              # m
    speed_kmh: tuple = (10.0, 90.0)
    brake_force: tuple = (-8000.0, -1000.0)   # N
    mass: tuple = (1000.0, 2000.0)       # kg
    delay: tuple = (0.0, 0.5)            # s
    packet_error_rate: tuple = (0.0, 0.5)
    control_gain: tuple = (0.8, 1.2)

    def __post_init__(self):
        for name in (f.name for f in fields(self)):
            bounds = getattr(self, name)
            if not isinstance(bounds, (list, tuple)) or len(bounds) != 2:
                raise InvalidArgument(f"range {name} must be a pair [lo, hi], got {bounds!r}")
            checked = checked_int if name == "n_followers" else checked_real
            lo, hi = (checked(bound, f"range {name} bound") for bound in bounds)
            object.__setattr__(self, name, (lo, hi))
            if not (lo <= hi and math.isfinite(hi - lo)):
                raise InvalidArgument(f"range {name} must have lo <= hi and a finite width "
                                      f"hi - lo, got [{lo!r}, {hi!r}]")
        if self.n_followers[0] < 1 or self.n_followers[1] > MAX_FOLLOWERS:
            raise InvalidArgument(f"n_followers range must stay within [1, {MAX_FOLLOWERS}]")
        if self.brake_force[1] > 0:
            raise InvalidArgument("brake_force range must be non-positive")
        if self.mass[0] <= 0:
            raise InvalidArgument(f"range mass must be positive, got {self.mass}")
        if not (0 <= self.packet_error_rate[0] and self.packet_error_rate[1] < 1):
            raise InvalidArgument(f"range packet_error_rate must lie in [0, 1), "
                                  f"got {self.packet_error_rate}")
        for name in ("speed_kmh", "delay", "control_gain"):
            if getattr(self, name)[0] < 0:
                raise InvalidArgument(
                    f"range {name} must be non-negative, got {getattr(self, name)}")
        if not math.isfinite(self.brake_force[0] / self.mass[0]):
            raise InvalidArgument("range brake_force / range mass must stay finite")

    def to_record(self) -> dict:
        return {f.name: list(map(float, getattr(self, f.name))) for f in fields(self)}


def _fill_row(row, n, gaps, speed_kmh, brake_force, masses, delay, packet_error_rate,
              control_gain) -> np.ndarray:
    """Write one scenario into a zeroed feature row; ``masses`` is an array.

    Layout: follower count; gaps padded to 8; per-vehicle speeds (km/h) padded
    to 9; per-vehicle F0/m accelerations padded to 9; F0; masses padded to 9;
    delay; packet error rate; control gain.  Padding is zero.
    """
    row[0] = n
    row[1:1 + n] = gaps
    row[9:9 + n + 1] = speed_kmh
    row[18:18 + n + 1] = brake_force / masses
    row[27] = brake_force
    row[28:28 + n + 1] = masses
    row[37:40] = delay, packet_error_rate, control_gain
    return row


def _reception_steps(row: np.ndarray, physics: Physics, seed: int) -> np.ndarray:
    """Step at which each follower of feature row ``row`` starts braking, zero
    padded to ``MAX_FOLLOWERS``: the delay in whole steps, plus one step per
    packet lost, drawn from ``seed``.  A delay past the horizon counts as the
    horizon, which no step reaches."""
    base = int(np.ceil(min(row[37], physics.horizon) / physics.time_step - 1e-12))
    n = int(row[0])
    out = np.zeros(MAX_FOLLOWERS, dtype=np.int64)
    out[:n] = base + (np.random.default_rng(seed).geometric(1.0 - row[38], size=n) - 1)
    return out


def _simulate_batch(x: np.ndarray, reception: np.ndarray, physics: Physics) -> np.ndarray:
    """Label the scenarios of feature rows ``x`` in lockstep under the
    constants ``physics``; ``reception`` holds their rows of reception steps.

    Each step works on compact arrays of the rows still active; ``rows`` maps
    them back to batch indices.  A row leaves on the step it collides or
    fully stops, so every row sees the same operations as a lone run."""
    dt = physics.time_step
    steps = int(round(physics.horizon / dt))
    a_roll = physics.rolling_resistance
    b_drag = physics.drag_coefficient
    threshold = physics.collision_distance

    # vehicles past the follower count: still, unit mass, spacing never collides
    pad = np.arange(MAX_FOLLOWERS + 1) > x[:, :1]
    v = x[:, 9:18] / 3.6
    d = np.where(pad[:, 1:], np.inf, x[:, 1:9])
    masses = np.where(pad, 1.0, x[:, 28:37])

    collided = (d <= threshold).any(axis=1)
    leaving = collided | (~(v > 0.0).any(axis=1))
    _check_finite(v[leaving], np.flatnonzero(leaving), "in its initial state")
    # compact state of the active rows; rows[i] is the batch index of row i
    rows = np.flatnonzero(~leaving)
    pad, v, d, masses, reception = pad[rows], v[rows], d[rows], masses[rows], reception[rows]
    brake = (x[rows, 39] * x[rows, 27])[:, None]     # a notified follower's force
    force = np.empty_like(v)
    force[:, 0] = x[rows, 27]

    for k in range(steps):
        if rows.size == 0:
            break
        resistance = a_roll + b_drag * v * v
        # followers cruise (net zero force) until notified, then brake
        force[:, 1:] = np.where(k >= reception, brake, resistance[:, 1:])
        dv = dt * (force - resistance) / masses
        d = d + dt * (v[:, :-1] - v[:, 1:])
        v = np.maximum(v + dv, 0.0)
        v[pad] = 0.0

        if k % 200 == 0:
            _check_finite(v, rows, f"at step {k}")
        hit = (d <= threshold).any(axis=1)
        leaving = hit | (~(v > 0.0).any(axis=1))
        if leaving.any():
            collided[rows[hit]] = True
            _check_finite(v[leaving], rows[leaving], f"at step {k}")
            keep = ~leaving
            rows, v, d, pad = rows[keep], v[keep], d[keep], pad[keep]
            masses, reception, brake, force = masses[keep], reception[keep], brake[keep], force[keep]

    _check_finite(v, rows, "at final step")
    return np.where(collided, -1, 1)


def _check_finite(v: np.ndarray, rows: np.ndarray, where: str) -> None:
    """Raise on the first row of ``v`` holding a non-finite speed, naming the
    scenario by its batch index ``rows[i]``."""
    bad = ~np.isfinite(v).all(axis=1)
    if bad.any():
        raise SimulationError(
            f"non-finite state in scenario {int(rows[bad][0])} {where}")


def _scenario_rows(n_samples: int, ranges: PlatoonRanges, seed: int, start: int = 0):
    """Feature rows and reception rows of ``generate_platoon_dataset``'s
    scenarios ``start`` to ``start + n_samples - 1``, each drawn from its own
    substream seeded by (seed, index), under the default physical constants."""
    physics = Physics()
    x = np.zeros((n_samples, FEATURE_DIM))
    reception = np.zeros((n_samples, MAX_FOLLOWERS), dtype=np.int64)
    for index in range(n_samples):
        rng = np.random.default_rng([seed, start + index])
        n = int(rng.integers(ranges.n_followers[0], ranges.n_followers[1] + 1))
        # the arguments are drawn in the order they are written
        _fill_row(x[index], n, rng.uniform(*ranges.gap, size=n), rng.uniform(*ranges.speed_kmh),
                  rng.uniform(*ranges.brake_force), rng.uniform(*ranges.mass, size=n + 1),
                  rng.uniform(*ranges.delay), rng.uniform(*ranges.packet_error_rate),
                  rng.uniform(*ranges.control_gain))
        reception[index] = _reception_steps(x[index], physics, int(rng.integers(2 ** 63)))
    return x, reception


def generate_platoon_dataset(n_samples: int, ranges: PlatoonRanges | None = None,
                             seed: int = 0, start: int = 0) -> Dataset:
    """Sample scenarios from the ranges, simulate, and collect a dataset.

    Each scenario gets its own substream seeded by (seed, index), so any
    generated row re-simulates alone to its label, and the scenarios
    ``start`` to ``start + n_samples - 1`` alone are the rows a dataset of
    ``start + n_samples`` holds from row ``start`` on.  n_samples = 0 yields
    an empty dataset of the fixed feature width.  The provenance records
    ``start`` when it is not 0.
    """
    n_samples = checked_int(n_samples, "n_samples")
    start = checked_int(start, "start")
    if n_samples < 0 or start < 0:
        raise InvalidArgument(
            f"n_samples and start must be non-negative, got {n_samples} and {start}")
    ranges = ranges or PlatoonRanges()
    x, reception = _scenario_rows(n_samples, ranges, seed, start)
    provenance = {"generator": "platoon", "seed": int(seed), "n": n_samples,
                  "ranges": ranges.to_record()}
    if start:
        provenance["start"] = start
    return Dataset(x, _simulate_batch(x, reception, Physics()), provenance)
