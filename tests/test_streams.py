"""Block streams: the vectorized SeedSequence states and the re-keyed SFC64 generator."""

import threading

import numpy as np
import pytest

from cpsmap.estimators import N_BLOCKS
from cpsmap.streams import BlockStreams, block_keys


def fresh_stream(seed, b):
    """Block b's stream built from scratch, as every block stream is defined."""
    return np.random.Generator(np.random.SFC64(np.random.SeedSequence(seed, spawn_key=(b,))))


@pytest.mark.parametrize("seed", [0, 1, 2**32 - 1, 2**32, 2**64 + 3, 10**30, 2**160 + 7])
def test_block_keys_equal_the_spawned_seed_sequences(seed):
    want = [
        np.random.SeedSequence(seed, spawn_key=(b,)).generate_state(3, np.uint64)
        for b in range(N_BLOCKS)
    ]
    got = block_keys(seed, N_BLOCKS)
    assert got.dtype == np.uint64 and got.shape == (N_BLOCKS, 4)
    assert np.array_equal(got[:, :3], want)
    assert np.all(got[:, 3] == 1)


STREAM_DRAWS = (
    lambda rng: rng.random(5),
    lambda rng: rng.integers(7, size=5),
    lambda rng: rng.integers(7, size=5, dtype=np.uint32),
    lambda rng: rng.standard_normal((3, 2)),
    lambda rng: rng.choice(3, size=6, p=[0.2, 0.5, 0.3]),
)


def test_rekeyed_stream_equals_a_fresh_stream():
    seed = 8911
    streams = BlockStreams(block_keys(seed, 4))
    for b in range(len(streams)):
        got, want = streams[b], fresh_stream(seed, b)
        assert str(got.bit_generator.state) == str(want.bit_generator.state)
        for draw in STREAM_DRAWS:
            assert np.array_equal(draw(got), draw(want))
        # end the block with half a 64-bit word kept before the next re-key
        got.random(1)
        while not got.bit_generator.state["has_uint32"]:
            got.integers(7, size=1, dtype=np.uint32)
    # the streams of a run of blocks, in block order, through one generator
    drawn = [[draw(rng) for draw in STREAM_DRAWS] for rng in streams[1:4]]
    for b, block in enumerate(drawn, start=1):
        want = fresh_stream(seed, b)
        for got, draw in zip(block, STREAM_DRAWS):
            assert np.array_equal(got, draw(want))


def test_scratch_arrays_are_kept_per_thread_and_size():
    streams = BlockStreams(block_keys(3, 4))
    a = streams.scratch("x", (5, 2))
    assert np.shares_memory(streams[1:3].scratch("x", (2, 5)), a)
    assert not np.shares_memory(streams.scratch("x", (6, 2)), a)
    seen = []
    worker = threading.Thread(target=lambda: seen.append(streams.scratch("x", (6, 2))))
    worker.start()
    worker.join(timeout=10)
    assert not worker.is_alive() and not np.shares_memory(seen[0], streams.scratch("x", (6, 2)))
