"""Register semantics: Alg. 2 update, Alg. 5 merge, Sec. 3.1 PMF."""

import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.distribution import rho_update
from repro.core.params import make_params
from repro.core.register import (
    alpha_contribution,
    alpha_contribution_scaled,
    beta_contribution,
    decode,
    enumerate_reachable,
    is_reachable,
    merge,
    register_pmf,
    state_change_probability,
    update,
    window_values,
)
from tests.conftest import SMALL_PARAMS

TINY_PARAMS = [make_params(2, 6, 2), make_params(1, 3, 3), make_params(0, 2, 4)]


def apply_sequence(values: list[int], d: int) -> int:
    register = 0
    for k in values:
        register = update(register, k, d)
    return register


class TestUpdate:
    def test_first_update_sets_max_and_phantom(self):
        # From the empty register, value k <= d leaves the deterministic
        # value-0 bit at position d - k (module docstring).
        d = 6
        assert update(0, 3, d) == (3 << d) | (1 << (d - 3))

    def test_first_update_beyond_d(self):
        d = 3
        assert update(0, 10, d) == 10 << d

    def test_smaller_value_sets_window_bit(self):
        d = 6
        register = update(0, 10, d)
        updated = update(register, 8, d)
        assert updated == register | (1 << (d - 2))

    def test_value_below_window_ignored(self):
        d = 3
        register = update(0, 10, d)
        assert update(register, 6, d) == register

    def test_idempotent(self):
        d = 6
        register = 0
        for k in (5, 9, 7, 9, 5, 7):
            register = update(register, k, d)
        for k in (5, 9, 7):
            assert update(register, k, d) == register

    def test_window_shift_on_max_increase(self):
        d = 6
        register = update(0, 8, d)       # max 8, phantom would be gone (8 > 6)
        register = update(register, 7, d)  # bit for 7 at position d-1
        shifted = update(register, 9, d)   # max 9: bit for 8 enters, 7 shifts
        assert decode(shifted, d)[0] == 9
        occurrences = dict(window_values(shifted, make_params(2, 6, 2)))
        assert occurrences[8] is True
        assert occurrences[7] is True
        assert occurrences[6] is False

    def test_figure3_style_walkthrough(self):
        """Two insertions with p=2, t=2, d=6 (the Figure 3 setting)."""
        params = make_params(2, 6, 2)
        d = params.d
        r = update(0, 13, d)
        assert decode(r, d) == (13, 0)
        r = update(r, 10, d)
        u, low = decode(r, d)
        assert u == 13
        assert (low >> (d - 3)) & 1  # value 10 = u - 3 recorded

    def test_d_zero_is_pure_max(self):
        register = 0
        for k in (3, 7, 5):
            register = update(register, k, 0)
        assert register == 7

    @given(st.lists(st.integers(1, 40), min_size=1, max_size=30))
    @settings(max_examples=150)
    def test_order_independence(self, values):
        d = 6
        shuffled = list(values)
        random.Random(42).shuffle(shuffled)
        assert apply_sequence(values, d) == apply_sequence(shuffled, d)

    @given(st.lists(st.integers(1, 40), min_size=0, max_size=30))
    @settings(max_examples=100)
    def test_monotone_nondecreasing(self, values):
        d = 4
        register = 0
        for k in values:
            updated = update(register, k, d)
            assert updated >= register
            register = updated


class TestMerge:
    @given(
        st.lists(st.integers(1, 40), min_size=0, max_size=20),
        st.lists(st.integers(1, 40), min_size=0, max_size=20),
    )
    @settings(max_examples=150)
    def test_merge_equals_union(self, left, right):
        d = 6
        merged = merge(apply_sequence(left, d), apply_sequence(right, d), d)
        assert merged == apply_sequence(left + right, d)

    @given(
        st.lists(st.integers(1, 30), max_size=15),
        st.lists(st.integers(1, 30), max_size=15),
    )
    @settings(max_examples=100)
    def test_commutative(self, left, right):
        d = 4
        a = apply_sequence(left, d)
        b = apply_sequence(right, d)
        assert merge(a, b, d) == merge(b, a, d)

    @given(
        st.lists(st.integers(1, 30), max_size=10),
        st.lists(st.integers(1, 30), max_size=10),
        st.lists(st.integers(1, 30), max_size=10),
    )
    @settings(max_examples=80)
    def test_associative(self, xs, ys, zs):
        d = 5
        a, b, c = (apply_sequence(v, d) for v in (xs, ys, zs))
        assert merge(merge(a, b, d), c, d) == merge(a, merge(b, c, d), d)

    @given(st.lists(st.integers(1, 30), max_size=15))
    def test_idempotent(self, values):
        d = 6
        register = apply_sequence(values, d)
        assert merge(register, register, d) == register

    @given(st.lists(st.integers(1, 30), max_size=15))
    def test_zero_is_identity(self, values):
        d = 6
        register = apply_sequence(values, d)
        assert merge(register, 0, d) == register
        assert merge(0, register, d) == register


class TestReachability:
    @pytest.mark.parametrize("params", TINY_PARAMS, ids=str)
    def test_enumerated_states_are_reachable(self, params):
        for state in enumerate_reachable(params):
            assert is_reachable(state, params)

    @pytest.mark.parametrize("params", TINY_PARAMS, ids=str)
    def test_random_streams_land_in_enumeration(self, params):
        states = set(enumerate_reachable(params))
        generator = random.Random(9)
        register = 0
        for _ in range(500):
            k = generator.randint(1, params.max_update_value)
            register = update(register, k, params.d)
            assert register in states

    def test_phantom_bit_violations_unreachable(self):
        params = make_params(2, 6, 2)
        # u = 3 <= d: phantom bit at position d-3 must be set.
        bad = 3 << params.d
        assert not is_reachable(bad, params)
        # Bits below the phantom must be clear.
        bad = (3 << params.d) | (1 << (params.d - 3)) | 1
        assert not is_reachable(bad, params)

    def test_u_out_of_range_unreachable(self):
        params = make_params(2, 6, 2)
        assert not is_reachable((params.max_update_value + 1) << params.d, params)


class TestRegisterPmf:
    """Sec. 3.1: the PMF over reachable states must sum to one."""

    @pytest.mark.parametrize("params", TINY_PARAMS, ids=str)
    @pytest.mark.parametrize("n", [0.5, 5.0, 100.0, 10000.0])
    def test_normalised(self, params, n):
        total = sum(register_pmf(r, n, params) for r in enumerate_reachable(params))
        assert total == pytest.approx(1.0, abs=1e-9)

    def test_empty_state_probability(self):
        params = make_params(2, 6, 2)
        assert register_pmf(0, 8.0, params) == pytest.approx(math.exp(-2.0))

    def test_unreachable_state_zero(self):
        params = make_params(2, 6, 2)
        assert register_pmf(3 << params.d, 10.0, params) == 0.0

    @pytest.mark.parametrize("params", TINY_PARAMS, ids=str)
    def test_matches_monte_carlo(self, params):
        """Empirical state frequencies match the Poissonized PMF."""
        import numpy as np

        from repro.backends import exaloglog_state

        n = 30
        runs = 4000
        rng = np.random.Generator(np.random.PCG64(17))
        counts: dict[int, int] = {}
        for _ in range(runs):
            size = rng.poisson(n * params.m)
            hashes = rng.integers(0, 1 << 64, size=size, dtype=np.uint64)
            state = exaloglog_state(hashes, params)
            r = state[0]
            counts[r] = counts.get(r, 0) + 1
        for state, count in sorted(counts.items(), key=lambda kv: -kv[1])[:5]:
            predicted = register_pmf(state, n * params.m, params)
            assert count / runs == pytest.approx(predicted, rel=0.25, abs=0.01)


class TestContributions:
    @pytest.mark.parametrize("params", TINY_PARAMS, ids=str)
    def test_alpha_scaled_matches_float(self, params):
        generator = random.Random(3)
        register = 0
        for _ in range(50):
            register = update(
                register, generator.randint(1, params.max_update_value), params.d
            )
            scaled = alpha_contribution_scaled(register, params)
            unscaled = alpha_contribution(register, params)
            assert scaled / 2 ** (64 - params.p) == pytest.approx(unscaled, rel=1e-12)

    @pytest.mark.parametrize("params", TINY_PARAMS, ids=str)
    def test_state_change_probability_empirical(self, params):
        """h(r): fraction of random updates that change the register."""
        generator = random.Random(11)
        register = update(update(0, 6, params.d), 4, params.d)
        predicted = state_change_probability(register, params) * params.m
        trials = 100000
        changed = 0
        for _ in range(trials):
            k = None
            # Draw an update value from rho_update by inversion sampling.
            u = generator.random()
            cumulative = 0.0
            for candidate in range(1, params.max_update_value + 1):
                cumulative += rho_update(candidate, params)
                if u < cumulative:
                    k = candidate
                    break
            if k is None:
                k = params.max_update_value
            if update(register, k, params.d) != register:
                changed += 1
        assert changed / trials == pytest.approx(predicted, rel=0.05, abs=0.005)

    def test_empty_register_alpha_is_one(self):
        for params in TINY_PARAMS:
            assert alpha_contribution(0, params) == pytest.approx(1.0)
            assert beta_contribution(0, params) == []

    def test_beta_counts_set_values(self):
        params = make_params(2, 6, 2)
        register = apply_sequence([10, 8, 5], params.d)
        exponents = beta_contribution(register, params)
        # max 10 and set window bits 8 and 5 -> three entries.
        assert len(exponents) == 3
