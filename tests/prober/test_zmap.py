"""ZMap permutation tests."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.netsim.ipv4 import is_probeable
from repro.prober.zmap import (
    AddressPermutation,
    GROUP_PRIME,
    find_generator,
    is_generator,
    probe_list,
    probe_order,
)


class TestGenerators:
    def test_group_prime_is_just_above_2_32(self):
        assert GROUP_PRIME > 1 << 32
        assert GROUP_PRIME - (1 << 32) == 15  # the ZMap prime

    def test_known_non_generators(self):
        assert not is_generator(1)
        assert not is_generator(0)
        assert not is_generator(GROUP_PRIME)
        # A quadratic residue can never generate the full group.
        square = pow(12345, 2, GROUP_PRIME)
        assert not is_generator(square)

    def test_find_generator_returns_generator(self):
        for seed in range(5):
            assert is_generator(find_generator(seed))

    def test_different_seeds_can_give_different_generators(self):
        generators = {find_generator(seed) for seed in range(10)}
        assert len(generators) > 1


class TestPermutation:
    def test_prefix_has_no_duplicates(self):
        addresses = AddressPermutation(seed=1).take(50_000)
        assert len(set(addresses)) == len(addresses)

    def test_all_values_in_ipv4_range(self):
        for address in AddressPermutation(seed=2).take(10_000):
            assert 0 <= address < 1 << 32

    def test_deterministic(self):
        assert AddressPermutation(seed=3).take(1000) == AddressPermutation(
            seed=3
        ).take(1000)

    def test_seed_changes_order(self):
        assert AddressPermutation(seed=4).take(1000) != AddressPermutation(
            seed=5
        ).take(1000)

    def test_spreads_across_address_space(self):
        # The first 10k probes should touch many /8s, unlike a linear scan.
        addresses = AddressPermutation(seed=6).take(10_000)
        slash8s = {address >> 24 for address in addresses}
        assert len(slash8s) > 200

    @settings(max_examples=20)
    @given(st.integers(0, 1_000_000))
    def test_any_seed_yields_valid_walk(self, seed):
        addresses = AddressPermutation(seed=seed).take(100)
        assert len(set(addresses)) == 100


class TestProbeOrder:
    def test_skips_reserved(self):
        for address in probe_order(seed=0, limit=20_000):
            assert is_probeable(address)

    def test_limit_respected(self):
        assert sum(1 for _ in probe_order(seed=0, limit=1234)) == 1234

    def test_deterministic(self):
        first = list(probe_order(seed=7, limit=500))
        second = list(probe_order(seed=7, limit=500))
        assert first == second


class TestProbeList:
    """``probe_list`` is the same walk as ``probe_order``, as one loop."""

    @pytest.mark.parametrize("seed", [0, 1, 3, 7, 2**31 + 5])
    @pytest.mark.parametrize("limit", [-3, 0, 1, 2, 257, 20_000])
    def test_equals_the_generator(self, seed, limit):
        assert probe_list(seed, limit) == list(probe_order(seed, limit))

    def test_non_positive_limit_is_empty(self):
        assert probe_list(seed=7, limit=0) == []
        assert probe_list(seed=7, limit=-1) == []

