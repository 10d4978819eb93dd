"""Braking simulator: exact Euler behaviour against a rational-arithmetic
oracle, labels against a plain-Python replay, the shrinking active set,
structural properties of the labels, and dataset generation."""

from __future__ import annotations

from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

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
from saferegions.platoon import _reception_steps, _scenario_rows, _simulate_batch

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


@pytest.mark.parametrize("field, value, message", [
    ("n_followers", 1.5, "n_followers must be an integer"),
    ("n_followers", True, "n_followers must be an integer"),
    ("gaps", (True,), "gaps must be a finite real number"),
    ("gaps", ("5.0",), "gaps must be a finite real number"),
    ("gaps", 5.0, "gaps must be a sequence of numbers"),
    ("masses", (1000.0, "1000"), "masses must be a finite real number"),
    ("speed_kmh", "50", "speed_kmh must be a finite real number"),
    ("speed_kmh", (50.0, None), "speed_kmh must be a finite real number"),
    ("brake_force", False, "brake_force must be a finite real number"),
    ("delay", "0.1", "delay must be a finite real number"),
    ("seed", 1.5, "seed must be an integer"),
], ids=["fractional_count", "boolean_count", "boolean_gap", "text_gap", "scalar_gaps",
        "text_mass", "text_speed", "none_speed", "boolean_force", "text_delay",
        "fractional_seed"])
def test_spec_rejects_fields_that_are_not_numbers(field, value, message):
    # a fractional count was stored as 2.5 and a boolean one passed as one
    # follower, a boolean gap loaded as 1.0, a text gap ended in a TypeError
    with pytest.raises(InvalidArgument, match=message):
        PlatoonSpec(**{**_GOOD_SPEC, field: value})


def test_spec_stores_its_fields_as_numbers():
    spec = PlatoonSpec(**{**_GOOD_SPEC, "n_followers": 1.0, "gaps": [5], "speed_kmh": 50,
                          "masses": np.array([1000.0, 1000.0]), "delay": 0})
    assert spec.n_followers == 1 and type(spec.n_followers) is int
    assert spec.gaps == (5.0,) and type(spec.gaps[0]) is float
    assert type(spec.speed_kmh) is float and type(spec.delay) is float
    assert spec.masses == (1000.0, 1000.0)
    assert np.array_equal(spec.speeds(), [50.0, 50.0])


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


@pytest.mark.parametrize("field, bounds, message", [
    ("gap", ("a", 5.0), "range gap bound must be a finite real number"),
    ("gap", (True, 5.0), "range gap bound must be a finite real number"),
    ("gap", 5.0, "range gap must be a pair"),
    ("gap", (4.0, 5.0, 6.0), "range gap must be a pair"),
    ("n_followers", (3.5, 8), "range n_followers bound must be an integer"),
    ("n_followers", (True, 8), "range n_followers bound must be an integer"),
], ids=["text", "boolean", "scalar", "triple", "fraction", "boolean_count"])
def test_ranges_reject_bounds_that_are_not_a_pair_of_numbers(field, bounds, message):
    # a string or a scalar once ended in a TypeError, a triple in a
    # ValueError, and a boolean bound loaded as 1.0
    with pytest.raises(InvalidArgument, match=message):
        PlatoonRanges(**{field: bounds})


def test_ranges_store_pairs_of_numbers():
    ranges = PlatoonRanges(n_followers=[2.0, 4], gap=[4, 5])
    assert ranges.n_followers == (2, 4) and type(ranges.n_followers[0]) is int
    assert ranges.gap == (4.0, 5.0) and type(ranges.gap[0]) is float


def test_ranges_validation():
    PlatoonRanges()
    with pytest.raises(InvalidArgument):
        PlatoonRanges(gap=(9.0, 4.0))
    with pytest.raises(InvalidArgument):
        PlatoonRanges(n_followers=(0, 4))
    with pytest.raises(InvalidArgument):
        PlatoonRanges(brake_force=(-100.0, 50.0))


@pytest.mark.parametrize("field, bounds, message", [
    ("gap", (-1e308, 1e308), "range gap must have lo <= hi and a finite width"),
    ("mass", (-5.0, 10.0), "range mass must be positive"),
    ("mass", (0.0, 10.0), "range mass must be positive"),
    ("speed_kmh", (-1.0, 10.0), "range speed_kmh must be non-negative"),
    ("delay", (-0.1, 0.5), "range delay must be non-negative"),
    ("control_gain", (-0.5, 1.0), "range control_gain must be non-negative"),
    ("packet_error_rate", (-0.1, 0.5), r"range packet_error_rate must lie in \[0, 1\)"),
    ("packet_error_rate", (0.0, 3.0), r"range packet_error_rate must lie in \[0, 1\)"),
    ("mass", (1e-320, 1.0), "range brake_force / range mass must stay finite"),
], ids=["infinite_width", "negative_mass", "zero_mass", "negative_speed", "negative_delay",
        "negative_gain", "negative_error_rate", "error_rate_above_one", "infinite_acceleration"])
def test_ranges_reject_values_no_scenario_may_take(field, bounds, message):
    # once checked scenario by scenario: the first ended in numpy's
    # OverflowError, the others failed naming a drawn value or none
    with pytest.raises(InvalidArgument, match=message):
        PlatoonRanges(**{field: bounds})


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


def _row_spec(row):
    """The scenario of a feature row, with the default physical constants."""
    n = int(row[0])
    return PlatoonSpec(n_followers=n, gaps=tuple(row[1:1 + n]), speed_kmh=tuple(row[9:10 + n]),
                       brake_force=row[27], masses=tuple(row[28:29 + n]), delay=row[37],
                       packet_error_rate=row[38], control_gain=row[39])


def test_stored_specs_relabel_to_the_stored_labels():
    data = generate_platoon_dataset(25, seed=12)
    x, reception = _scenario_rows(25, PlatoonRanges(), 12)
    assert np.array_equal(x, data.x)
    for i in (0, 7, 24):
        # a generated row relabels alone, and is the feature row of its scenario
        assert _simulate_batch(x[i:i + 1], reception[i:i + 1], PlatoonSpec)[0] == data.y[i]
        assert np.array_equal(platoon_features(_row_spec(x[i])), x[i])


def test_generation_constructs_no_scenario_object(monkeypatch):
    expected = generate_platoon_dataset(30, seed=4)

    def refuse(spec):
        raise AssertionError("a PlatoonSpec was constructed")

    monkeypatch.setattr(PlatoonSpec, "__post_init__", refuse)
    data = generate_platoon_dataset(30, seed=4)
    assert np.array_equal(data.x, expected.x) and np.array_equal(data.y, expected.y)


def test_delays_past_the_horizon_never_notify():
    # one delay draw of 1e306 s once ended in an OverflowError; past the
    # 30 s horizon no follower is notified, whatever the delay
    far = generate_platoon_dataset(40, PlatoonRanges(delay=(1e306, 1e307)), seed=3)
    late = generate_platoon_dataset(40, PlatoonRanges(delay=(31.0, 100.0)), seed=3)
    assert np.array_equal(far.y, late.y)
    assert np.array_equal(np.delete(far.x, 37, axis=1), np.delete(late.x, 37, axis=1))


def _bounds(values):
    return st.tuples(values, values).map(sorted)


_FINITE = st.floats(allow_nan=False, allow_infinity=False)
_NON_NEGATIVE = st.floats(min_value=0.0, allow_infinity=False)


@settings(max_examples=60, deadline=None)
@given(n_followers=_bounds(st.integers(1, 8)), gap=_bounds(_FINITE),
       speed_kmh=_bounds(_NON_NEGATIVE),
       brake_force=_bounds(st.floats(max_value=0.0, allow_infinity=False)),
       mass=_bounds(st.floats(min_value=0.0, exclude_min=True, allow_infinity=False)),
       delay=_bounds(_NON_NEGATIVE),
       packet_error_rate=_bounds(st.floats(min_value=0.0, max_value=1.0, exclude_max=True)),
       control_gain=_bounds(_NON_NEGATIVE), seed=st.integers(0, 2 ** 32))
def test_every_row_drawn_from_valid_ranges_is_a_valid_scenario(seed, **bounds):
    try:
        ranges = PlatoonRanges(**bounds)
    except InvalidArgument:
        assume(False)
    x, reception = _scenario_rows(4, ranges, seed)
    assert np.isfinite(x).all() and (reception >= 0).all()
    for row in x:
        assert np.array_equal(platoon_features(_row_spec(row)), row)


def test_empty_generation():
    data = generate_platoon_dataset(0, seed=0)
    assert data.x.shape == (0, FEATURE_DIM)
    assert data.n_samples == 0
    with pytest.raises(InvalidArgument):
        generate_platoon_dataset(-1, seed=0)
    # 2.5 once generated two scenarios
    with pytest.raises(InvalidArgument, match="n_samples must be an integer"):
        generate_platoon_dataset(2.5, seed=0)


def test_generated_labels_match_plain_python_replay():
    data = generate_platoon_dataset(100, seed=31)
    x, reception = _scenario_rows(100, PlatoonRanges(), 31)
    expected = [platoon_label_oracle(_row_spec(row), steps) for row, steps in zip(x, reception)]
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


def _rows(specs):
    """Feature rows and reception rows of the scenarios, as simulate_platoon
    builds them."""
    x = np.stack([platoon_features(spec) for spec in specs])
    return x, np.stack([_reception_steps(row, spec, spec.seed) for row, spec in zip(x, specs)])


def test_mixed_batch_labels_equal_lone_runs():
    specs = _mixed_batch()
    x, reception = _rows(specs)
    labels = _simulate_batch(x, reception, PlatoonSpec).tolist()
    alone = [simulate_platoon(spec)[1] for spec in specs]
    assert labels == alone == [-1, 1, -1, 1]
    assert labels == [platoon_label_oracle(s, r) for s, r in zip(specs, reception)]


def test_non_finite_state_names_the_batch_index():
    specs = _mixed_batch()
    # 1e308 km/h squares to infinity in the drag term, so the follower's
    # force balance is inf - inf and its speed turns NaN on the first step
    bad = PlatoonSpec(n_followers=1, gaps=(50.0,), speed_kmh=1e308,
                      brake_force=-4000.0, masses=(1000.0, 1000.0), delay=1000.0,
                      packet_error_rate=0.0, control_gain=1.0)
    x, reception = _rows([specs[0], specs[3], bad])
    with np.errstate(over="ignore", invalid="ignore"), \
            pytest.raises(SimulationError, match=r"scenario 2 at step 0$"):
        _simulate_batch(x, reception, PlatoonSpec)


def test_non_finite_state_finished_at_start_is_caught():
    # a NaN speed is not > 0, so this scenario counts as stopped at t = 0
    # and never enters the active set; it must not be labelled safe.
    # PlatoonSpec rejects a NaN speed, so it is set in the feature row.
    specs = _mixed_batch()
    bad = PlatoonSpec(n_followers=1, gaps=(50.0,), speed_kmh=50.0,
                      brake_force=-4000.0, masses=(1000.0, 1000.0), delay=0.0,
                      packet_error_rate=0.0, control_gain=1.0)
    x, reception = _rows([specs[3], bad, specs[2]])
    x[1, 9:11] = np.nan
    with pytest.raises(SimulationError, match=r"scenario 1 in its initial state"):
        _simulate_batch(x, reception, PlatoonSpec)
