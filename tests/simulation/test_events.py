"""Event-schedule simulation (Sec. 5.1)."""

import numpy as np
import pytest

from repro.backends import exaloglog_state
from repro.core.params import make_params
from repro.simulation.events import (
    filter_state_changes,
    logspace_checkpoints,
    simulate_event_schedule,
)
from repro.simulation.rng import numpy_generator, random_hashes


class TestExactPhase:
    def test_first_occurrences_match_stream(self):
        """Events with times <= n reconstruct the exact n-element state."""
        params = make_params(2, 16, 4)
        rng = numpy_generator(1, 0)
        schedule = simulate_event_schedule(params, 5000, rng, n_exact=5000)
        # Recompute the state from the same stream.
        rng2 = numpy_generator(1, 0)
        hashes = random_hashes(rng2, 5000)
        reference = exaloglog_state(hashes, params)
        # Fold events through the register update.
        from repro.core.register import update

        registers = [0] * params.m
        for i in range(len(schedule)):
            registers[int(schedule.registers[i])] = update(
                registers[int(schedule.registers[i])],
                int(schedule.values[i]),
                params.d,
            )
        assert registers == reference

    def test_times_sorted_and_positive(self):
        params = make_params(2, 20, 4)
        schedule = simulate_event_schedule(params, 10000, numpy_generator(2, 0))
        times = schedule.times
        assert (times >= 1.0).all()
        assert (np.diff(times) >= 0).all()

    def test_events_unique_per_pair(self):
        params = make_params(1, 9, 3)
        schedule = simulate_event_schedule(params, 5000, numpy_generator(3, 0))
        keys = schedule.registers * (params.max_update_value + 2) + schedule.values
        assert len(np.unique(keys)) == len(keys)


class TestTailPhase:
    def test_reaches_large_n(self):
        params = make_params(2, 20, 4)
        schedule = simulate_event_schedule(
            params, 1e18, numpy_generator(4, 0), n_exact=1 << 12
        )
        assert schedule.times[-1] > 1e15

    def test_tail_event_count_bounded_by_pairs(self):
        params = make_params(2, 16, 4)
        schedule = simulate_event_schedule(
            params, 1e19, numpy_generator(5, 0), n_exact=1 << 12
        )
        assert len(schedule) <= params.m * params.max_update_value

    def test_tail_waiting_times_geometric(self):
        """Mean first-occurrence time of the rarest values matches 1/p."""
        params = make_params(0, 0, 2)
        k = 20  # rho = 2**-20, per-register prob 2**-22
        times = []
        for run in range(600):
            schedule = simulate_event_schedule(
                params, 1e9, numpy_generator(6, run), n_exact=0
            )
            mask = (schedule.values == k) & (schedule.registers == 0)
            if mask.any():
                times.append(float(schedule.times[mask][0]))
        mean = np.mean(times)
        expected = 2.0 ** 22
        assert mean == pytest.approx(expected, rel=0.15)


class TestStateChangeFilter:
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_filtered_replay_equals_unfiltered(self, seed):
        from repro.core.register import update

        params = make_params(2, 8, 4)
        schedule = simulate_event_schedule(
            params, 1e8, numpy_generator(7, seed), n_exact=1 << 12
        )
        filtered = filter_state_changes(schedule, params)
        assert len(filtered) <= len(schedule)

        def fold(sched):
            registers = [0] * params.m
            for i in range(len(sched)):
                r = int(sched.registers[i])
                registers[r] = update(registers[r], int(sched.values[i]), params.d)
            return registers

        assert fold(filtered) == fold(schedule)

    def test_filter_drops_below_window_events(self):
        params = make_params(2, 4, 4)  # small d drops many events
        schedule = simulate_event_schedule(
            params, 1e10, numpy_generator(8, 0), n_exact=1 << 12
        )
        filtered = filter_state_changes(schedule, params)
        assert len(filtered) < len(schedule)

    def test_empty_schedule(self):
        params = make_params(2, 20, 4)
        schedule = simulate_event_schedule(params, 0, numpy_generator(9, 0), n_exact=0)
        assert len(filter_state_changes(schedule, params)) == 0


class TestCheckpoints:
    def test_logspace_125(self):
        checkpoints = logspace_checkpoints(1, 1000, 3)
        assert checkpoints == [1, 2, 5, 10, 20, 50, 100, 200, 500, 1000]

    def test_bounds_respected(self):
        checkpoints = logspace_checkpoints(10, 99, 3)
        assert checkpoints[0] >= 10
        assert checkpoints[-1] <= 99

    def test_single_per_decade(self):
        assert logspace_checkpoints(1, 100, 1) == [1, 10, 100]
