"""Tests for the DES environment: clock, scheduling, and run() semantics."""

import pytest

from repro import des
from repro.des.environment import EmptySchedule


def test_initial_time_defaults_to_zero():
    assert des.Environment().now == 0.0


def test_initial_time_can_be_set():
    assert des.Environment(initial_time=42.5).now == 42.5


def test_timeout_advances_clock():
    env = des.Environment()
    env.timeout(3.0)
    env.run()
    assert env.now == 3.0


def test_timeout_negative_delay_rejected():
    env = des.Environment()
    with pytest.raises(ValueError):
        env.timeout(-1.0)


def test_timeout_zero_delay_allowed():
    env = des.Environment()
    done = []

    def proc(env):
        yield env.timeout(0.0)
        done.append(env.now)

    env.process(proc(env))
    env.run()
    assert done == [0.0]


def test_run_until_time_stops_clock_exactly():
    env = des.Environment()

    def ticker(env):
        while True:
            yield env.timeout(1.0)

    env.process(ticker(env))
    env.run(until=10.5)
    assert env.now == 10.5


def test_run_until_time_excludes_events_at_boundary():
    """SimPy semantics: events at exactly `until` are not executed."""
    env = des.Environment()
    fired = []

    def proc(env):
        yield env.timeout(5.0)
        fired.append(env.now)

    env.process(proc(env))
    env.run(until=5.0)
    assert fired == []
    assert env.now == 5.0


def test_run_until_past_time_raises():
    env = des.Environment(initial_time=10.0)
    with pytest.raises(ValueError):
        env.run(until=5.0)


def test_run_until_event_returns_value():
    env = des.Environment()

    def proc(env):
        yield env.timeout(2.0)
        return "payload"

    p = env.process(proc(env))
    assert env.run(until=p) == "payload"
    assert env.now == 2.0


def test_run_until_already_processed_event():
    env = des.Environment()

    def proc(env):
        yield env.timeout(1.0)
        return 7

    p = env.process(proc(env))
    env.run()
    assert env.run(until=p) == 7


def test_run_until_event_that_never_fires_raises():
    env = des.Environment()
    orphan = env.event()
    with pytest.raises(des.SimulationError):
        env.run(until=orphan)


def test_run_until_failing_process_propagates():
    env = des.Environment()

    def bad(env):
        yield env.timeout(1.0)
        raise RuntimeError("kaput")

    p = env.process(bad(env))
    with pytest.raises(RuntimeError, match="kaput"):
        env.run(until=p)


def test_run_drains_queue_when_no_until():
    env = des.Environment()
    env.timeout(1.0)
    env.timeout(2.0)
    env.run()
    assert env.now == 2.0
    assert len(env) == 0


def test_run_until_time_with_empty_queue_advances_clock():
    env = des.Environment()
    env.run(until=100.0)
    assert env.now == 100.0


def test_step_on_empty_schedule_raises():
    env = des.Environment()
    with pytest.raises(EmptySchedule):
        env.step()


def test_peek_reports_next_event_time():
    env = des.Environment()
    env.timeout(7.0)
    env.timeout(3.0)
    assert env.peek() == 3.0


def test_peek_empty_queue_is_inf():
    assert des.Environment().peek() == float("inf")


def test_fifo_ordering_of_simultaneous_events():
    env = des.Environment()
    order = []

    def proc(env, tag):
        yield env.timeout(1.0)
        order.append(tag)

    for tag in ("a", "b", "c"):
        env.process(proc(env, tag))
    env.run()
    assert order == ["a", "b", "c"]


def test_schedule_negative_delay_rejected():
    env = des.Environment()
    with pytest.raises(ValueError):
        env.schedule(env.event(), delay=-0.5)


def test_unhandled_process_failure_crashes_run():
    env = des.Environment()

    def bad(env):
        yield env.timeout(1.0)
        raise ValueError("unhandled")

    env.process(bad(env))
    with pytest.raises(ValueError, match="unhandled"):
        env.run()


def test_handled_process_failure_does_not_crash():
    env = des.Environment()
    caught = []

    def bad(env):
        yield env.timeout(1.0)
        raise ValueError("inner")

    def watcher(env):
        try:
            yield env.process(bad(env))
        except ValueError as exc:
            caught.append(str(exc))

    env.process(watcher(env))
    env.run()
    assert caught == ["inner"]


def test_clock_is_monotonic_across_many_events():
    env = des.Environment()
    times = []

    def proc(env, delay):
        yield env.timeout(delay)
        times.append(env.now)

    for d in (5, 1, 3, 2, 4, 1, 5, 0):
        env.process(proc(env, d))
    env.run()
    assert times == sorted(times)


def test_instant_end_callback_runs_after_the_instant_without_an_event():
    env = des.Environment()
    log = []

    def proc(env, name, delay):
        yield env.timeout(delay)
        log.append((name, env.now))
        if name == "a":
            env.at_instant_end(lambda: log.append(("end", env.now)))

    for name, delay in (("a", 1.0), ("b", 1.0), ("c", 2.0)):
        env.process(proc(env, name, delay))
    env.run()
    # After every event at t=1, before the clock moves to t=2.
    assert log == [("a", 1.0), ("b", 1.0), ("end", 1.0), ("c", 2.0)]


def test_instant_end_callback_runs_when_nothing_is_queued_and_may_schedule():
    env = des.Environment()
    log = []

    def at_end():
        log.append(env.now)
        env.timeout(0.5).callbacks.append(lambda _e: log.append(env.now))

    env.at_instant_end(at_end)
    env.run()
    assert log == [0.0, 0.5]


def test_instant_end_callback_survives_a_stop_mid_instant():
    env = des.Environment()
    log = []
    stop = env.timeout(1.0)
    stop.callbacks.append(lambda _e: env.at_instant_end(lambda: log.append(env.now)))
    env.timeout(3.0)
    env.run(until=stop)
    assert log == []  # the run stopped inside the instant
    env.run()
    assert log == [1.0]
