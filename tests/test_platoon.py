"""Braking simulator: exact Euler behaviour against a rational-arithmetic
oracle, labels against a plain-Python replay, the shrinking active set,
structural properties of the labels, and dataset generation."""

from __future__ import annotations

from fractions import Fraction

import numpy as np
import pytest

from saferegions import (
    FEATURE_DIM,
    InvalidArgument,
    PlatoonRanges,
    PlatoonSpec,
    SimulationError,
    generate_platoon_dataset,
    platoon_features,
    simulate_platoon,
)
from saferegions.platoon import _reception_steps, _scenario_specs, _simulate_batch

from .oracles import platoon_label_oracle

# One follower, no resistances, never-notified follower: dt and F0/m are
# dyadic, so the whole Euler trajectory is exactly representable and an
# independent Fraction-arithmetic replay predicts the collision gap exactly.
_DT = 1.0 / 128.0


def _coasting_spec(gap):
    return PlatoonSpec(
        n_followers=1,
        gaps=(gap,),
        speed_kmh=28.8,              # exactly 8 m/s after the /3.6 conversion
        brake_force=-1000.0,
        masses=(1000.0, 1000.0),
        delay=1000.0,                # notification never arrives in horizon
        packet_error_rate=0.0,
        control_gain=1.0,
        rolling_resistance=0.0,
        drag_coefficient=0.0,
        time_step=_DT,
        horizon=30.0,
        collision_distance=2.0,
        seed=0,
    )


def _oracle_closing_distance():
    """Replay the explicit Euler recurrence in exact rationals: leader brakes
    at 1 m/s^2 from 8 m/s, follower holds 8 m/s; spacings advance with the
    pre-update speeds and speeds clamp at zero."""
    dt = Fraction(_DT)
    v_leader = Fraction(28.8 / 3.6)
    v_follower = Fraction(28.8 / 3.6)
    accel = Fraction(-1)
    closing = Fraction(0)
    steps = round(30.0 / _DT)
    for _ in range(steps):
        closing += dt * (v_follower - v_leader)
        v_leader = max(v_leader + dt * accel, Fraction(0))
    return closing


def test_collision_threshold_matches_euler_oracle():
    closing = _oracle_closing_distance()
    assert closing == Fraction(207.96875)   # dyadic, exact in float too
    critical_gap = 2.0 + float(closing)
    # half an Euler step of closing on either side of the exact threshold
    margin = 8.0 * _DT / 2.0
    _, label_tight = simulate_platoon(_coasting_spec(critical_gap - margin))
    _, label_clear = simulate_platoon(_coasting_spec(critical_gap + margin))
    assert label_tight == -1
    assert label_clear == 1


def test_labels_monotone_in_initial_gap():
    labels = [simulate_platoon(_coasting_spec(g))[1]
              for g in (3.0, 60.0, 150.0, 205.0, 209.9, 210.1, 240.0)]
    assert labels == sorted(labels)
    assert labels[0] == -1 and labels[-1] == 1


def test_zero_speed_platoon_never_moves():
    spec = PlatoonSpec(n_followers=2, gaps=(2.5, 2.5), speed_kmh=0.0,
                       brake_force=-5000.0, masses=(1500.0,) * 3,
                       delay=0.0, packet_error_rate=0.0, control_gain=1.0)
    _, label = simulate_platoon(spec)
    assert label == 1


def test_initial_overlap_is_an_immediate_collision():
    spec = PlatoonSpec(n_followers=1, gaps=(1.5,), speed_kmh=0.0,
                       brake_force=0.0, masses=(1200.0, 1200.0),
                       delay=0.0, packet_error_rate=0.0, control_gain=1.0)
    _, label = simulate_platoon(spec)
    assert label == -1


def test_identical_promptly_notified_followers_keep_spacing():
    # same mass, same speed, unit gain, zero delay: every vehicle follows the
    # same speed profile, so spacings never change and 2.1 m stays clear of
    # the 2 m collision distance for the whole horizon
    spec = PlatoonSpec(n_followers=3, gaps=(2.1, 2.1, 2.1), speed_kmh=80.0,
                       brake_force=-8000.0, masses=(1500.0,) * 4,
                       delay=0.0, packet_error_rate=0.0, control_gain=1.0)
    _, label = simulate_platoon(spec)
    assert label == 1


def test_notification_delay_causes_the_crash():
    common = dict(n_followers=1, gaps=(6.0,), speed_kmh=72.0,
                  brake_force=-4000.0, masses=(1000.0, 1000.0),
                  packet_error_rate=0.0, control_gain=1.0,
                  rolling_resistance=0.0, drag_coefficient=0.0)
    _, prompt = simulate_platoon(PlatoonSpec(delay=0.0, **common))
    _, late = simulate_platoon(PlatoonSpec(delay=1000.0, **common))
    assert prompt == 1
    assert late == -1


def test_feature_layout():
    spec = PlatoonSpec(n_followers=2, gaps=(5.0, 7.0), speed_kmh=(50.0, 40.0, 30.0),
                       brake_force=-3000.0, masses=(1000.0, 1500.0, 2000.0),
                       delay=0.25, packet_error_rate=0.1, control_gain=1.1)
    feat = platoon_features(spec)
    assert feat.shape == (FEATURE_DIM,)
    assert feat[0] == 2
    assert np.array_equal(feat[1:3], [5.0, 7.0]) and (feat[3:9] == 0).all()
    assert np.array_equal(feat[9:12], [50.0, 40.0, 30.0]) and (feat[12:18] == 0).all()
    assert np.allclose(feat[18:21], [-3.0, -2.0, -1.5]) and (feat[21:27] == 0).all()
    assert feat[27] == -3000.0
    assert np.array_equal(feat[28:31], [1000.0, 1500.0, 2000.0]) and (feat[31:37] == 0).all()
    assert np.array_equal(feat[37:], [0.25, 0.1, 1.1])


_GOOD_SPEC = dict(n_followers=1, gaps=(5.0,), speed_kmh=50.0, brake_force=-1000.0,
                  masses=(1000.0, 1000.0), delay=0.0, packet_error_rate=0.0,
                  control_gain=1.0)


def test_spec_validation():
    good = _GOOD_SPEC
    PlatoonSpec(**good)
    with pytest.raises(InvalidArgument):
        PlatoonSpec(**{**good, "brake_force": 10.0})
    with pytest.raises(InvalidArgument):
        PlatoonSpec(**{**good, "gaps": (5.0, 5.0)})
    with pytest.raises(InvalidArgument):
        PlatoonSpec(**{**good, "masses": (1000.0,)})
    with pytest.raises(InvalidArgument):
        PlatoonSpec(**{**good, "masses": (1000.0, -5.0)})
    with pytest.raises(InvalidArgument):
        PlatoonSpec(**{**good, "packet_error_rate": 1.0})
    with pytest.raises(InvalidArgument):
        PlatoonSpec(**{**good, "n_followers": 9})
    with pytest.raises(InvalidArgument):
        PlatoonSpec(**{**good, "speed_kmh": -3.0}).speeds()
    with pytest.raises(InvalidArgument):
        PlatoonSpec(**{**good, "speed_kmh": (50.0, 40.0, 30.0)}).speeds()


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
@pytest.mark.parametrize("field, value", [
    ("gaps", lambda bad: (bad,)),
    ("masses", lambda bad: (1000.0, bad)),
    ("speed_kmh", lambda bad: bad),
    ("speed_kmh", lambda bad: (50.0, bad)),
    ("brake_force", lambda bad: bad),
    ("delay", lambda bad: bad),
    ("control_gain", lambda bad: bad),
    ("packet_error_rate", lambda bad: bad),
    ("rolling_resistance", lambda bad: bad),
    ("drag_coefficient", lambda bad: bad),
    ("time_step", lambda bad: bad),
    ("horizon", lambda bad: bad),
    ("collision_distance", lambda bad: bad),
])
def test_spec_rejects_non_finite_fields(field, value, bad):
    # a NaN gap never compares <= collision_distance, so it would be
    # labelled safe; a NaN speed or mass passes every sign check
    with pytest.raises(InvalidArgument, match=field):
        PlatoonSpec(**{**_GOOD_SPEC, field: value(bad)})


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
@pytest.mark.parametrize("field", ["n_followers", "gap", "speed_kmh", "brake_force",
                                   "mass", "delay", "packet_error_rate", "control_gain"])
def test_ranges_reject_non_finite_bounds(field, bad):
    lo, hi = getattr(PlatoonRanges(), field)
    for bounds in [(bad, hi), (lo, bad)]:
        with pytest.raises(InvalidArgument, match=field):
            PlatoonRanges(**{field: bounds})


def test_ranges_validation():
    PlatoonRanges()
    with pytest.raises(InvalidArgument):
        PlatoonRanges(gap=(9.0, 4.0))
    with pytest.raises(InvalidArgument):
        PlatoonRanges(n_followers=(0, 4))
    with pytest.raises(InvalidArgument):
        PlatoonRanges(brake_force=(-100.0, 50.0))


def test_generated_dataset_is_deterministic_and_mixed():
    data = generate_platoon_dataset(150, seed=5)
    again = generate_platoon_dataset(150, seed=5)
    assert np.array_equal(data.x, again.x) and np.array_equal(data.y, again.y)
    assert data.x.shape == (150, FEATURE_DIM)
    n_safe = int((data.y == 1).sum())
    assert 10 < n_safe < 140
    other = generate_platoon_dataset(150, seed=6)
    assert not np.array_equal(data.x, other.x)
    assert data.provenance["generator"] == "platoon"
    assert data.provenance["ranges"] == PlatoonRanges().to_record()


def test_stored_specs_relabel_to_the_stored_labels():
    data = generate_platoon_dataset(25, seed=12)
    specs = _scenario_specs(25, PlatoonRanges(), 12)
    assert len(specs) == 25
    for i in (0, 7, 24):
        feat, label = simulate_platoon(specs[i])
        assert np.array_equal(feat, data.x[i])
        assert label == data.y[i]


def test_empty_generation():
    data = generate_platoon_dataset(0, seed=0)
    assert data.x.shape == (0, FEATURE_DIM)
    assert data.n_samples == 0
    with pytest.raises(InvalidArgument):
        generate_platoon_dataset(-1, seed=0)


def _receptions(specs):
    return [_reception_steps(s, np.random.default_rng(s.seed)) for s in specs]


def test_generated_labels_match_plain_python_replay():
    data = generate_platoon_dataset(100, seed=31)
    specs = _scenario_specs(100, PlatoonRanges(), 31)
    expected = [platoon_label_oracle(s, r) for s, r in zip(specs, _receptions(specs))]
    assert data.y.tolist() == expected
    assert 10 < expected.count(1) < 90


def _mixed_batch():
    common = dict(brake_force=-4000.0, delay=0.0, packet_error_rate=0.0,
                  control_gain=1.0)
    return [
        # finished at t = 0: the second gap is inside the collision distance
        PlatoonSpec(n_followers=2, gaps=(6.0, 1.5), speed_kmh=50.0,
                    masses=(1500.0,) * 3, **common),
        # finished at t = 0: nothing moves
        PlatoonSpec(n_followers=3, gaps=(5.0,) * 3, speed_kmh=0.0,
                    masses=(1200.0,) * 4, **common),
        # collides within the first second: the follower is never notified
        PlatoonSpec(n_followers=1, gaps=(4.0,), speed_kmh=72.0,
                    masses=(1000.0, 1000.0), **{**common, "delay": 1000.0}),
        # still moving at the horizon (about 18.5 m/s): light braking of a
        # heavy platoon whose followers brake alike and keep their spacing
        PlatoonSpec(n_followers=4, gaps=(8.0,) * 4, speed_kmh=90.0,
                    masses=(2000.0,) * 5, **{**common, "brake_force": -100.0}),
    ]


def test_mixed_batch_labels_equal_lone_runs():
    specs = _mixed_batch()
    receptions = _receptions(specs)
    labels = _simulate_batch(specs, receptions).tolist()
    alone = [int(_simulate_batch([s], [r])[0]) for s, r in zip(specs, receptions)]
    assert labels == alone == [-1, 1, -1, 1]
    assert labels == [platoon_label_oracle(s, r) for s, r in zip(specs, receptions)]


def test_non_finite_state_names_the_batch_index():
    specs = _mixed_batch()
    # 1e308 km/h squares to infinity in the drag term, so the follower's
    # force balance is inf - inf and its speed turns NaN on the first step
    bad = PlatoonSpec(n_followers=1, gaps=(50.0,), speed_kmh=1e308,
                      brake_force=-4000.0, masses=(1000.0, 1000.0), delay=1000.0,
                      packet_error_rate=0.0, control_gain=1.0)
    batch = [specs[0], specs[3], bad]
    with np.errstate(over="ignore", invalid="ignore"), \
            pytest.raises(SimulationError, match=r"scenario 2 at step 0$"):
        _simulate_batch(batch, _receptions(batch))


def test_non_finite_state_finished_at_start_is_caught():
    # a NaN speed is not > 0, so this scenario counts as stopped at t = 0
    # and never enters the active set; it must not be labelled safe.
    # PlatoonSpec rejects a NaN speed, so it is set past the constructor.
    specs = _mixed_batch()
    bad = PlatoonSpec(n_followers=1, gaps=(50.0,), speed_kmh=50.0,
                      brake_force=-4000.0, masses=(1000.0, 1000.0), delay=0.0,
                      packet_error_rate=0.0, control_gain=1.0)
    object.__setattr__(bad, "speed_kmh", float("nan"))
    batch = [specs[3], bad, specs[2]]
    with pytest.raises(SimulationError, match=r"scenario 1 in its initial state"):
        _simulate_batch(batch, _receptions(batch))
