"""Block streams: the vectorized SeedSequence states and the re-keyed SFC64 generator."""

import sys
import threading

import numpy as np
import pytest

from cpsmap.cps import gamma_wigner
from cpsmap.estimators import N_BLOCKS, MethodSpec, TCFRequest, estimate_tcf
from cpsmap.models import ModelSpec, build_hamiltonian
from cpsmap.streams import BlockStreams, block_keys


def fresh_stream(seed, b):
    """Block b's stream built from scratch, as every block stream is defined."""
    return np.random.Generator(np.random.SFC64(np.random.SeedSequence(seed, spawn_key=(b,))))


# seeds of 1, 2, 3, 4 and 6 32-bit words
SEEDS = (0, 1, 2**32 - 1, 2**32, 2**64 + 3, 10**30, 2**160 + 7)


def spawned_keys(seed):
    return [np.random.SeedSequence(seed, spawn_key=(b,)).generate_state(3, np.uint64) for b in range(N_BLOCKS)]


@pytest.mark.parametrize("seed", SEEDS)
def test_block_keys_equal_the_spawned_seed_sequences(seed):
    got = block_keys(seed, N_BLOCKS)
    assert got.dtype == np.uint64 and got.shape == (N_BLOCKS, 4)
    assert np.array_equal(got[:, :3], spawned_keys(seed))
    assert np.all(got[:, 3] == 1)


def test_block_keys_of_seeds_of_every_size_in_turn_keep_their_hash_constants():
    # the hash constants are kept per seed word count: every size, one after another in one process
    for seed in (*SEEDS, *reversed(SEEDS), *SEEDS[::2]):
        assert np.array_equal(block_keys(seed, N_BLOCKS)[:, :3], spawned_keys(seed)), seed


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


@pytest.mark.parametrize("F", range(2, 33))
def test_bit_draws_are_the_generators_own_draws(F):
    # a gdtwa point's 2(F-1) sign bits, with and without the focus coins;
    # a change to NumPy's random() or integers() must fail here
    seed, bits = 31, 2 * (F - 1)
    streams = BlockStreams(block_keys(seed, 3))
    for nb in (1, 2, 7, 50):
        for coins in (False, True):
            got_coins, got = streams.bit_draws(nb, bits, coins)
            assert got.shape == (3, nb) and (got_coins is None) != coins
            for b in range(3):
                rng = fresh_stream(seed, b)
                if coins:
                    assert np.array_equal(got_coins[b], rng.random(nb) < 0.5), (nb, b)
                want = rng.integers(4 ** (F - 1), size=nb)
                assert np.array_equal(got[b].astype(np.uint64), want.astype(np.uint64)), (nb, b, coins)


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


def on_a_fresh_thread(call):
    """call() run on a new thread, which starts with no generator of its own."""
    out = []
    worker = threading.Thread(target=lambda: out.append(call()))
    worker.start()
    worker.join(timeout=60)
    assert not worker.is_alive() and len(out) == 1
    return out[0]


def assert_same_bits(a, b):
    for name in ("estimates", "normalization", "standard_errors"):
        assert getattr(a, name).tobytes() == getattr(b, name).tobytes(), name
    assert a.moment_check == b.moment_check


def tcf_request(family, seed, F=3, n_traj=2000):
    H = build_hamiltonian(ModelSpec.random(F, seed=seed))
    method = {
        "cmm": MethodSpec.cmm(gamma_wigner(F)),
        "gdtwa": MethodSpec.gdtwa(),
        "ehrenfest": MethodSpec.ehrenfest(),
        "triangle_sqc": MethodSpec.triangle_sqc(),
    }[family]
    return TCFRequest(H, (1, 2), (2, 1), np.linspace(0.0, 1.0, 3), n_traj, seed, method)


def test_a_half_used_word_on_the_threads_generator_does_not_reach_the_next_call():
    # cmm's float32 phases are drawn from 32-bit half words
    req = tcf_request("cmm", 4801)
    rng = BlockStreams(block_keys(5, 1))[0]
    assert BlockStreams(block_keys(6, 2))[1] is rng  # every BlockStreams re-keys the thread's one generator
    rng.integers(7, size=1, dtype=np.uint32)
    assert rng.bit_generator.state["has_uint32"]
    assert_same_bits(estimate_tcf(req), on_a_fresh_thread(lambda: estimate_tcf(req)))


def test_concurrent_calls_on_user_threads_equal_sequential_calls():
    reqs = [tcf_request(family, seed, n_traj=20000) for family, seed in
            (("cmm", 11), ("gdtwa", 12), ("ehrenfest", 13), ("triangle_sqc", 14), ("gdtwa", 15))]
    want = [estimate_tcf(req) for req in reqs]
    got = [[] for _ in reqs]
    start = threading.Barrier(len(reqs))

    def calls(i):
        start.wait(timeout=60)
        got[i].extend(estimate_tcf(reqs[i]) for _ in range(3))

    # more threads than cores, switching often, so the threads' draws interleave
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        workers = [threading.Thread(target=calls, args=(i,)) for i in range(len(reqs))]
        for worker in workers:
            worker.start()
        for worker in workers:
            worker.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert not any(worker.is_alive() for worker in workers)
    for results, res in zip(got, want):
        assert len(results) == 3
        for r in results:
            assert_same_bits(r, res)
