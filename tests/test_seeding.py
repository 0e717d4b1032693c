"""``rng_streams`` seats Generators exactly as ``rng_from`` seeds them."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fedtrust.seeding import rng_from, rng_streams

EDGE_SEEDS = [0, 1, 2**32 - 1, 2**32, 2**64 - 1]
tags = st.lists(st.one_of(st.integers(-(2**70), 2**70), st.text(max_size=20)), max_size=3)
indices = st.lists(st.integers(-(2**65), 2**65), max_size=6)


def assert_streams_match(seed, tags, indices):
    count = 0
    for i, rng in zip(indices, rng_streams(seed, *tags, indices=indices)):
        ref = rng_from(seed, *tags, i)
        assert rng.bit_generator.state == ref.bit_generator.state
        assert np.array_equal(rng.standard_normal(3), ref.standard_normal(3))
        assert np.array_equal(rng.integers(0, 2**63, 3), ref.integers(0, 2**63, 3))
        count += 1
    assert count == len(indices)


@settings(max_examples=60, deadline=None)
@given(st.one_of(st.sampled_from(EDGE_SEEDS), st.integers(0, 2**64 - 1)), tags, indices)
def test_streams_equal_rng_from(seed, tags, indices):
    assert_streams_match(seed, tags, indices)


@pytest.mark.parametrize("seed", EDGE_SEEDS)
@pytest.mark.parametrize("tags", [(), ("perm", 3), ("noise",), (7, "ab", 2**64 - 1)])
def test_streams_equal_rng_from_at_edge_seeds(seed, tags):
    # seeds below 2**32 make a one-word SeedSequence entropy, the others two
    assert_streams_match(seed, tags, list(range(40)) + [2**32, 2**64 - 1, -1])


def test_no_indices_give_no_streams():
    assert list(rng_streams(3, "perm", indices=[])) == []
