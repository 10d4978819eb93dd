"""Braking simulator: exact Euler behaviour against a rational-arithmetic
oracle, labels against a plain-Python replay, the shrinking active set,
structural properties of the labels, and dataset generation.  A scenario is
a feature row written by the generator's own ``_fill_row``, simulated under
a ``Physics`` record of constants."""

from __future__ import annotations

import os
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from saferegions import (
    FEATURE_DIM,
    InvalidArgument,
    PlatoonRanges,
    SimulationError,
    generate_platoon_dataset,
)
from saferegions import forkpool, platoon
from saferegions.platoon import (
    Physics,
    _fill_row,
    _reception_steps,
    _scenario_rows,
    _simulate_batch,
)

from .oracles import platoon_label_oracle


def _row(n_followers, gaps, speed_kmh, brake_force, masses, delay=0.0,
         packet_error_rate=0.0, control_gain=1.0):
    """The feature row of one scenario; ``speed_kmh`` is one speed for every
    vehicle or one per vehicle."""
    return _fill_row(np.zeros(FEATURE_DIM), n_followers, gaps, speed_kmh, brake_force,
                     np.asarray(masses, dtype=float), delay, packet_error_rate, control_gain)


def _rewritten(row):
    """``row`` written again from the fields it stores."""
    n = int(row[0])
    return _row(n, row[1:1 + n], row[9:10 + n], row[27], row[28:29 + n], *row[37:40])


def _label(row, physics=Physics(), seed=0):
    """Label of one scenario run alone, its reception steps drawn from ``seed``."""
    reception = _reception_steps(row, physics, seed)
    return int(_simulate_batch(row[None], reception[None], physics)[0])


# One follower, no resistances, never-notified follower: dt and F0/m are
# dyadic, so the whole Euler trajectory is exactly representable and an
# independent Fraction-arithmetic replay predicts the collision gap exactly.
_DT = 1.0 / 128.0
_COASTING = Physics(time_step=_DT, horizon=30.0, rolling_resistance=0.0,
                    drag_coefficient=0.0, collision_distance=2.0)


def _coasting_label(gap):
    # 28.8 km/h is exactly 8 m/s after the /3.6 conversion; the notification
    # never arrives within the horizon
    row = _row(1, [gap], 28.8, -1000.0, [1000.0, 1000.0], delay=1000.0)
    return _label(row, _COASTING)


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
    assert _coasting_label(critical_gap - margin) == -1
    assert _coasting_label(critical_gap + margin) == 1


def test_labels_monotone_in_initial_gap():
    labels = [_coasting_label(g) for g in (3.0, 60.0, 150.0, 205.0, 209.9, 210.1, 240.0)]
    assert labels == sorted(labels)
    assert labels[0] == -1 and labels[-1] == 1


def test_zero_speed_platoon_never_moves():
    assert _label(_row(2, [2.5, 2.5], 0.0, -5000.0, [1500.0] * 3)) == 1


def test_initial_overlap_is_an_immediate_collision():
    assert _label(_row(1, [1.5], 0.0, 0.0, [1200.0, 1200.0])) == -1


def test_identical_promptly_notified_followers_keep_spacing():
    # same mass, same speed, unit gain, zero delay: every vehicle follows the
    # same speed profile, so spacings never change and 2.1 m stays clear of
    # the 2 m collision distance for the whole horizon
    assert _label(_row(3, [2.1, 2.1, 2.1], 80.0, -8000.0, [1500.0] * 4)) == 1


def test_notification_delay_causes_the_crash():
    physics = Physics(rolling_resistance=0.0, drag_coefficient=0.0)
    prompt = _row(1, [6.0], 72.0, -4000.0, [1000.0, 1000.0], delay=0.0)
    late = _row(1, [6.0], 72.0, -4000.0, [1000.0, 1000.0], delay=1000.0)
    assert _label(prompt, physics) == 1
    assert _label(late, physics) == -1


def test_feature_layout():
    feat = _row(2, [5.0, 7.0], [50.0, 40.0, 30.0], -3000.0, [1000.0, 1500.0, 2000.0],
                delay=0.25, packet_error_rate=0.1, control_gain=1.1)
    assert feat.shape == (FEATURE_DIM,)
    assert feat[0] == 2
    assert np.array_equal(feat[1:3], [5.0, 7.0]) and (feat[3:9] == 0).all()
    assert np.array_equal(feat[9:12], [50.0, 40.0, 30.0]) and (feat[12:18] == 0).all()
    assert np.allclose(feat[18:21], [-3.0, -2.0, -1.5]) and (feat[21:27] == 0).all()
    assert feat[27] == -3000.0
    assert np.array_equal(feat[28:31], [1000.0, 1500.0, 2000.0]) and (feat[31:37] == 0).all()
    assert np.array_equal(feat[37:], [0.25, 0.1, 1.1])


# A scenario is specified by ranges pinned to one value each: uniform(v, v) is v.
_GOOD_SPEC = dict(n_followers=1, gap=5.0, speed_kmh=50.0, brake_force=-1000.0,
                  mass=1000.0, delay=0.0, packet_error_rate=0.0, control_gain=1.0)


def _pinned(**values):
    return PlatoonRanges(**{name: (value, value) for name, value in values.items()})


def test_spec_validation():
    data = generate_platoon_dataset(1, _pinned(**_GOOD_SPEC), seed=0)
    assert np.array_equal(data.x[0], _row(1, [5.0], 50.0, -1000.0, [1000.0, 1000.0]))
    # the values a scenario may not take are refused before any is drawn
    for field, value in [("brake_force", 10.0), ("mass", -5.0), ("mass", 0.0),
                         ("packet_error_rate", 1.0), ("n_followers", 9),
                         ("n_followers", 0), ("speed_kmh", -3.0), ("delay", -0.1),
                         ("control_gain", -1.0)]:
        with pytest.raises(InvalidArgument):
            _pinned(**{**_GOOD_SPEC, field: value})


def test_spec_stores_its_fields_as_numbers():
    # integers, lists and numpy scalars pin the same scenario as floats do
    loose = PlatoonRanges(n_followers=[1.0, 1], gap=[5, 5], speed_kmh=(50, 50),
                          brake_force=(np.int64(-1000), -1000), mass=(np.float32(1000), 1000),
                          delay=(0, 0), packet_error_rate=(0, 0), control_gain=(1, 1))
    assert loose == _pinned(**_GOOD_SPEC)
    assert type(loose.n_followers[0]) is int and type(loose.brake_force[0]) is float
    x, reception = _scenario_rows(3, loose, 8)
    assert np.array_equal(x, _scenario_rows(3, _pinned(**_GOOD_SPEC), 8)[0])
    assert x.dtype == np.float64 and reception.dtype == np.int64
    assert (x == _row(1, [5.0], 50.0, -1000.0, [1000.0, 1000.0])).all()


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf, np.float32(np.inf)])
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


def test_stored_specs_relabel_to_the_stored_labels():
    data = generate_platoon_dataset(25, seed=12)
    x, reception = _scenario_rows(25, PlatoonRanges(), 12)
    assert np.array_equal(x, data.x)
    for i in (0, 7, 24):
        # a generated row relabels alone, and is the feature row of its scenario
        assert _simulate_batch(x[i:i + 1], reception[i:i + 1], Physics())[0] == data.y[i]
        assert np.array_equal(_rewritten(x[i]), x[i])


def test_generation_constructs_no_scenario_object(monkeypatch):
    # every scenario is written in place into the one feature matrix and the
    # whole pool is labelled by one batch call: nothing is built per scenario
    expected = generate_platoon_dataset(30, seed=4)
    filled, batches = [], []

    def fill(row, *fields):
        filled.append(row.base is not None)
        return _fill_row(row, *fields)

    def simulate(x, reception, physics, first=0):
        batches.append((x.shape, reception.shape))
        return _simulate_batch(x, reception, physics, first)

    monkeypatch.setattr(platoon, "_fill_row", fill)
    monkeypatch.setattr(platoon, "_simulate_batch", simulate)
    data = generate_platoon_dataset(30, seed=4)
    assert filled == [True] * 30
    assert batches == [((30, FEATURE_DIM), (30, 8))]
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
        n = int(row[0])
        assert 1 <= n <= 8
        assert (row[9:10 + n] >= 0).all() and (row[28:29 + n] > 0).all()
        assert row[27] <= 0 and row[37] >= 0 and 0 <= row[38] < 1 and row[39] >= 0
        assert np.array_equal(_rewritten(row), row)


def test_empty_generation():
    data = generate_platoon_dataset(0, seed=0)
    assert data.x.shape == (0, FEATURE_DIM)
    assert data.n_samples == 0
    with pytest.raises(InvalidArgument):
        generate_platoon_dataset(-1, seed=0)
    # 2.5 once generated two scenarios
    with pytest.raises(InvalidArgument, match="n_samples must be an integer"):
        generate_platoon_dataset(2.5, seed=0)
    with pytest.raises(InvalidArgument, match="non-negative"):
        generate_platoon_dataset(3, seed=0, start=-1)


def test_generation_from_a_start_index_equals_the_pool_rows():
    pool = generate_platoon_dataset(50, seed=9)
    tail = generate_platoon_dataset(20, seed=9, start=30)
    assert tail.x.tobytes() == pool.x[30:].tobytes()
    assert tail.y.tobytes() == pool.y[30:].tobytes()
    assert tail.provenance["start"] == 30 and "start" not in pool.provenance


def test_generated_labels_match_plain_python_replay():
    data = generate_platoon_dataset(100, seed=31)
    x, reception = _scenario_rows(100, PlatoonRanges(), 31)
    expected = [platoon_label_oracle(row, steps, Physics()) for row, steps in zip(x, reception)]
    assert data.y.tolist() == expected
    assert 10 < expected.count(1) < 90


def _mixed_batch():
    return [
        # finished at t = 0: the second gap is inside the collision distance
        _row(2, [6.0, 1.5], 50.0, -4000.0, [1500.0] * 3),
        # finished at t = 0: nothing moves
        _row(3, [5.0] * 3, 0.0, -4000.0, [1200.0] * 4),
        # collides within the first second: the follower is never notified
        _row(1, [4.0], 72.0, -4000.0, [1000.0, 1000.0], delay=1000.0),
        # still moving at the horizon (about 18.5 m/s): light braking of a
        # heavy platoon whose followers brake alike and keep their spacing
        _row(4, [8.0] * 4, 90.0, -100.0, [2000.0] * 5),
    ]


def _batch(rows):
    """The rows stacked, with the reception rows ``_label`` draws for them."""
    x = np.stack(rows)
    return x, np.stack([_reception_steps(row, Physics(), 0) for row in x])


def test_mixed_batch_labels_equal_lone_runs():
    rows = _mixed_batch()
    x, reception = _batch(rows)
    labels = _simulate_batch(x, reception, Physics()).tolist()
    alone = [_label(row) for row in rows]
    assert labels == alone == [-1, 1, -1, 1]
    assert labels == [platoon_label_oracle(row, r, Physics()) for row, r in zip(x, reception)]


def test_non_finite_state_names_the_batch_index():
    rows = _mixed_batch()
    # 1e308 km/h squares to infinity in the drag term, so the follower's
    # force balance is inf - inf and its speed turns NaN on the first step
    bad = _row(1, [50.0], 1e308, -4000.0, [1000.0, 1000.0], delay=1000.0)
    x, reception = _batch([rows[0], rows[3], bad])
    with np.errstate(over="ignore", invalid="ignore"), \
            pytest.raises(SimulationError, match=r"scenario 2 at step 0$"):
        _simulate_batch(x, reception, Physics())


def test_non_finite_state_finished_at_start_is_caught():
    # a NaN speed is not > 0, so this scenario counts as stopped at t = 0
    # and never enters the active set; it must not be labelled safe
    rows = _mixed_batch()
    bad = _row(1, [50.0], 50.0, -4000.0, [1000.0, 1000.0])
    x, reception = _batch([rows[3], bad, rows[2]])
    x[1, 9:11] = np.nan
    with pytest.raises(SimulationError, match=r"scenario 1 in its initial state"):
        _simulate_batch(x, reception, Physics())


_needs_fork = pytest.mark.skipif(platoon.fork_cpus() < 2,
                                 reason="forked generation needs fork and two CPUs")


def _task_and_pid(failing, task):
    if task == failing:
        raise ValueError(f"task {task} failed")
    return task, os.getpid()


@pytest.mark.parametrize("workers", [1, pytest.param(2, marks=_needs_fork)])
def test_fork_map_keeps_task_order_and_propagates_errors(workers):
    # below two workers every task runs in this process and no child starts
    import multiprocessing

    results = forkpool.fork_map(_task_and_pid, None, range(5), workers)
    assert [task for task, _ in results] == list(range(5))
    in_process = {pid for _, pid in results} == {os.getpid()}
    assert in_process == (workers < 2)
    assert multiprocessing.active_children() == []
    with pytest.raises(ValueError, match="task 3 failed"):
        forkpool.fork_map(_task_and_pid, 3, range(5), workers)
    assert multiprocessing.active_children() == []


def _generated(monkeypatch, n_samples, start, *, forked):
    """``generate_platoon_dataset(n_samples, seed=9, start=start)`` with the
    fork pool forced on or off, and the chunks the pool was given."""
    chunks = []

    def spy(fn, job, tasks, workers):
        chunks.extend(tasks)
        return forkpool.fork_map(fn, job, tasks, workers)

    monkeypatch.setattr(platoon, "fork_map", spy)
    monkeypatch.setattr(platoon, "_POOL_MIN_SCENARIOS", 1 if forked else 10 ** 9)
    assert (platoon._pool_workers(n_samples) > 1) == forked
    return generate_platoon_dataset(n_samples, seed=9, start=start), chunks


@_needs_fork
@pytest.mark.parametrize("n_samples, start", [(151, 0), (120, 37)])
def test_forked_generation_equals_serial_generation(monkeypatch, n_samples, start):
    import multiprocessing

    serial, none = _generated(monkeypatch, n_samples, start, forked=False)
    forked, chunks = _generated(monkeypatch, n_samples, start, forked=True)
    assert none == [(0, n_samples)]
    # one contiguous chunk per worker, covering the call's indices in order
    assert len(chunks) == platoon._pool_workers(n_samples)
    assert [first for first, _ in chunks] == np.cumsum([0] + [c for _, c in chunks])[:-1].tolist()
    assert sum(count for _, count in chunks) == n_samples
    assert forked.x.tobytes() == serial.x.tobytes() and forked.x.shape == serial.x.shape
    assert forked.y.tobytes() == serial.y.tobytes() and forked.y.dtype == serial.y.dtype
    assert forked.provenance == serial.provenance
    assert multiprocessing.active_children() == []


@_needs_fork
def test_non_finite_scenario_in_a_later_chunk_raises_the_serial_error(monkeypatch):
    import multiprocessing

    real_rows = platoon._scenario_rows

    def rows_with_a_nan_speed(n_samples, ranges, seed, start=0):
        # scenario 120 of the call, in the second of two chunks of 151
        x, reception = real_rows(n_samples, ranges, seed, start)
        if start <= 120 < start + n_samples:
            x[120 - start, 9:11] = np.nan
        return x, reception

    monkeypatch.setattr(platoon, "_scenario_rows", rows_with_a_nan_speed)
    messages = {}
    for forked in (False, True):
        with pytest.raises(SimulationError) as info:
            _generated(monkeypatch, 151, 0, forked=forked)
        messages[forked] = str(info.value)
        assert multiprocessing.active_children() == []
    assert messages[True] == messages[False] == "non-finite state in scenario 120 at step 0"


def _labels_sum(n_samples):
    return int(generate_platoon_dataset(n_samples, seed=9).y.sum())


@_needs_fork
def test_generation_in_a_daemonic_worker_stays_in_process(monkeypatch):
    # a multiprocessing.Pool worker may not start processes of its own, so
    # generation there must not fork whatever its size
    import multiprocessing

    monkeypatch.setattr(platoon, "_POOL_MIN_SCENARIOS", 1)
    expected = _labels_sum(40)
    with multiprocessing.get_context("fork").Pool(1) as pool:
        assert pool.map(_labels_sum, [40], chunksize=1) == [expected]
