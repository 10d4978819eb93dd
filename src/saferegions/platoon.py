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
otherwise.  Simulations are vectorized across a batch that shrinks as it
runs: each Euler step works only on the active set, the scenarios with no
collision yet and at least one vehicle still moving.  A scenario leaves the
set on the step it collides or fully stops (or never enters it when it is
finished at t = 0), and its speeds are checked for non-finite values as it
leaves.  Every scenario goes through the same floating-point operations as
it would alone, so batch labels equal single-scenario labels bit for bit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .datagen import Dataset
from .errors import InvalidArgument, SimulationError

__all__ = ["PlatoonSpec", "PlatoonRanges", "platoon_features", "simulate_platoon",
           "generate_platoon_dataset", "FEATURE_DIM"]

MAX_FOLLOWERS = 8
FEATURE_DIM = 40   # 1 + 8 gaps + 9 speeds + 9 accels + 1 force + 9 masses + 3 comms
# scalar PlatoonSpec fields that must be finite (packet_error_rate is checked
# against [0, 1), which NaN already fails)
_SCALAR_FIELDS = ("brake_force", "delay", "control_gain", "rolling_resistance",
                  "drag_coefficient", "time_step", "horizon", "collision_distance")


@dataclass(frozen=True)
class PlatoonSpec:
    """Concrete scenario: geometry, masses, braking, and network behaviour."""

    n_followers: int
    gaps: tuple                  # initial spacings, one per follower, m
    speed_kmh: tuple | float     # initial speed(s), scalar or one per vehicle
    brake_force: float           # leader braking force F0 <= 0, N
    masses: tuple                # one per vehicle (leader first), kg
    delay: float                 # notification network delay, s
    packet_error_rate: float     # probability a retransmission is lost
    control_gain: float          # follower braking force = gain * F0
    rolling_resistance: float = 100.0   # N
    drag_coefficient: float = 0.5       # N s^2 / m^2
    time_step: float = 0.01             # s
    horizon: float = 30.0               # s
    collision_distance: float = 2.0     # m
    seed: int = 0

    def __post_init__(self):
        n = int(self.n_followers)
        if not 1 <= n <= MAX_FOLLOWERS:
            raise InvalidArgument(f"n_followers must lie in [1, {MAX_FOLLOWERS}], got {n}")
        if len(self.gaps) != n:
            raise InvalidArgument(f"expected {n} gaps, got {len(self.gaps)}")
        if len(self.masses) != n + 1:
            raise InvalidArgument(f"expected {n + 1} masses, got {len(self.masses)}")
        speed = self.speed_kmh
        for name, values in (("gaps", self.gaps), ("masses", self.masses),
                             ("speed_kmh", (speed,) if np.ndim(speed) == 0 else speed)):
            if not all(map(math.isfinite, values)):
                raise InvalidArgument(f"{name} must be finite, got {getattr(self, name)!r}")
        for name in _SCALAR_FIELDS:
            if not math.isfinite(getattr(self, name)):
                raise InvalidArgument(f"{name} must be finite, got {getattr(self, name)!r}")
        if any(m <= 0 for m in self.masses):
            raise InvalidArgument("masses must be positive")
        if self.brake_force > 0:
            raise InvalidArgument(f"brake_force must be <= 0, got {self.brake_force!r}")
        if not 0.0 <= self.packet_error_rate < 1.0:
            raise InvalidArgument(
                f"packet_error_rate must lie in [0, 1), got {self.packet_error_rate!r}")
        if self.delay < 0 or self.control_gain < 0:
            raise InvalidArgument("delay and control_gain must be non-negative")
        if self.rolling_resistance < 0 or self.drag_coefficient < 0:
            raise InvalidArgument("resistance coefficients must be non-negative")
        if self.time_step <= 0 or self.horizon <= 0:
            raise InvalidArgument("time_step and horizon must be positive")
        if self.collision_distance < 0:
            raise InvalidArgument("collision_distance must be non-negative")

    def speeds(self) -> np.ndarray:
        v = np.asarray(self.speed_kmh, dtype=float)
        if v.ndim == 0:
            v = np.full(int(self.n_followers) + 1, float(v))
        if v.shape != (int(self.n_followers) + 1,):
            raise InvalidArgument(
                f"speed_kmh must be scalar or one value per vehicle, got shape {v.shape}")
        if (v < 0).any():
            raise InvalidArgument("speeds must be non-negative")
        return v


@dataclass(frozen=True)
class PlatoonRanges:
    """Sampling ranges for scenario generation (defaults for a heavy-vehicle
    platoon; inclusive bounds, uniform draws)."""

    n_followers: tuple = (3, 8)
    gap: tuple = (4.0, 9.0)              # m
    speed_kmh: tuple = (10.0, 90.0)
    brake_force: tuple = (-8000.0, -1000.0)   # N
    mass: tuple = (1000.0, 2000.0)       # kg
    delay: tuple = (0.0, 0.5)            # s
    packet_error_rate: tuple = (0.0, 0.5)
    control_gain: tuple = (0.8, 1.2)

    def __post_init__(self):
        for name in ("n_followers", "gap", "speed_kmh", "mass", "delay",
                     "packet_error_rate", "control_gain", "brake_force"):
            lo, hi = getattr(self, name)
            if not (math.isfinite(lo) and math.isfinite(hi)):
                raise InvalidArgument(f"range {name} must be finite, got ({lo!r}, {hi!r})")
            if lo > hi:
                raise InvalidArgument(f"range {name} has lo > hi: {lo!r} > {hi!r}")
        if self.n_followers[0] < 1 or self.n_followers[1] > MAX_FOLLOWERS:
            raise InvalidArgument(f"n_followers range must stay within [1, {MAX_FOLLOWERS}]")
        if self.brake_force[1] > 0:
            raise InvalidArgument("brake_force range must be non-positive")

    def to_record(self) -> dict:
        return {name: list(map(float, getattr(self, name)))
                for name in ("n_followers", "gap", "speed_kmh", "brake_force",
                             "mass", "delay", "packet_error_rate", "control_gain")}


def platoon_features(spec: PlatoonSpec) -> np.ndarray:
    """Fixed-width feature vector of a scenario (simulation not needed).

    Layout: follower count; gaps padded to 8; per-vehicle speeds (km/h) padded
    to 9; per-vehicle F0/m accelerations padded to 9; F0; masses padded to 9;
    delay; packet error rate; control gain.  Padding is zero.
    """
    n = int(spec.n_followers)
    out = np.zeros(FEATURE_DIM)
    out[0] = n
    out[1:1 + n] = spec.gaps
    out[9:9 + n + 1] = spec.speeds()
    masses = np.asarray(spec.masses, dtype=float)
    out[18:18 + n + 1] = spec.brake_force / masses
    out[27] = spec.brake_force
    out[28:28 + n + 1] = masses
    out[37] = spec.delay
    out[38] = spec.packet_error_rate
    out[39] = spec.control_gain
    return out


def _reception_steps(spec: PlatoonSpec, rng: np.random.Generator) -> np.ndarray:
    # base delay in steps, plus one step per lost packet per follower
    base = int(np.ceil(spec.delay / spec.time_step - 1e-12))
    tries = rng.geometric(1.0 - spec.packet_error_rate, size=int(spec.n_followers))
    return base + (tries - 1)


def simulate_platoon(spec: PlatoonSpec) -> tuple[np.ndarray, int]:
    """Run one scenario; returns (features, label)."""
    rng = np.random.default_rng(spec.seed)
    reception = _reception_steps(spec, rng)
    labels = _simulate_batch([spec], [reception])
    return platoon_features(spec), int(labels[0])


def _simulate_batch(specs: list[PlatoonSpec], receptions: list[np.ndarray]) -> np.ndarray:
    """Integrate many scenarios in lockstep; they must share the physical
    constants (time step, horizon, resistances, collision distance).

    Each step works on compact arrays of the rows still active; ``rows`` maps
    them back to batch indices.  A row leaves on the step it collides or
    fully stops, so every row sees the same operations as a lone run."""
    ref = specs[0]
    constants = [(s.time_step, s.horizon, s.rolling_resistance, s.drag_coefficient,
                  s.collision_distance) for s in specs]
    if any(c != constants[0] for c in constants):
        raise InvalidArgument("batched scenarios must share physical constants")

    batch = len(specs)
    n_veh = MAX_FOLLOWERS + 1
    dt = ref.time_step
    steps = int(round(ref.horizon / dt))
    a_roll = ref.rolling_resistance
    b_drag = ref.drag_coefficient
    threshold = ref.collision_distance

    pad = np.ones((batch, n_veh), dtype=bool)
    v = np.zeros((batch, n_veh))
    d = np.full((batch, MAX_FOLLOWERS), np.inf)   # inert padding: never collides
    masses = np.ones((batch, n_veh))
    force0 = np.zeros(batch)
    gain = np.zeros(batch)
    reception = np.full((batch, MAX_FOLLOWERS), np.iinfo(np.int64).max, dtype=np.int64)

    for b, spec in enumerate(specs):
        n = int(spec.n_followers)
        pad[b, :n + 1] = False
        v[b, :n + 1] = spec.speeds() / 3.6
        d[b, :n] = spec.gaps
        masses[b, :n + 1] = spec.masses
        force0[b] = spec.brake_force
        gain[b] = spec.control_gain
        reception[b, :n] = receptions[b]

    collided = (d <= threshold).any(axis=1)
    leaving = collided | (~(v > 0.0).any(axis=1))
    _check_finite(v[leaving], np.flatnonzero(leaving), "in its initial state")
    # compact state of the active rows; rows[i] is the batch index of row i
    rows = np.flatnonzero(~leaving)
    pad, v, d, masses, reception = pad[rows], v[rows], d[rows], masses[rows], reception[rows]
    brake = (gain * force0)[rows, None]     # a notified follower's force
    force = np.empty_like(v)
    force[:, 0] = force0[rows]

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


def _scenario_specs(n_samples: int, ranges: PlatoonRanges, seed: int) -> list:
    """The scenarios of ``generate_platoon_dataset``, each drawn from its own
    substream seeded by (seed, index)."""
    specs: list[PlatoonSpec] = []
    for index in range(n_samples):
        rng = np.random.default_rng([seed, index])
        n = int(rng.integers(ranges.n_followers[0], ranges.n_followers[1] + 1))
        specs.append(PlatoonSpec(
            n_followers=n,
            gaps=tuple(rng.uniform(*ranges.gap, size=n)),
            speed_kmh=float(rng.uniform(*ranges.speed_kmh)),
            brake_force=float(rng.uniform(*ranges.brake_force)),
            masses=tuple(rng.uniform(*ranges.mass, size=n + 1)),
            delay=float(rng.uniform(*ranges.delay)),
            packet_error_rate=float(rng.uniform(*ranges.packet_error_rate)),
            control_gain=float(rng.uniform(*ranges.control_gain)),
            seed=int(rng.integers(2 ** 63)),
        ))
    return specs


def generate_platoon_dataset(n_samples: int, ranges: PlatoonRanges | None = None,
                             seed: int = 0) -> Dataset:
    """Sample scenarios from the ranges, simulate, and collect a dataset.

    Each scenario gets its own substream seeded by (seed, index), so any
    stored spec re-simulates to its stored label.  n_samples = 0 yields an
    empty dataset of the fixed feature width.
    """
    n_samples = int(n_samples)
    if n_samples < 0:
        raise InvalidArgument(f"n_samples must be non-negative, got {n_samples}")
    ranges = ranges or PlatoonRanges()
    specs = _scenario_specs(n_samples, ranges, seed)
    # same draw path as simulate_platoon, so stored specs relabel exactly
    receptions = [_reception_steps(spec, np.random.default_rng(spec.seed)) for spec in specs]

    if n_samples == 0:
        x = np.empty((0, FEATURE_DIM))
        labels = np.empty((0,), dtype=int)
    else:
        labels = _simulate_batch(specs, receptions)
        x = np.stack([platoon_features(s) for s in specs])

    provenance = {"generator": "platoon", "seed": int(seed), "n": n_samples,
                  "ranges": ranges.to_record()}
    return Dataset(x, labels, provenance)
