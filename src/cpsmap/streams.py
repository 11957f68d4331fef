"""Counter-based random streams of the Monte Carlo blocks.

Block b of a run with seed s draws from the stream
Generator(Philox(SeedSequence(s, spawn_key=(b,)))).  block_keys derives
the Philox keys of all blocks in one vectorized pass of SeedSequence's
hash, which NumPy's stream-compatibility policy freezes, and
BlockStreams hands each worker thread one Philox generator that it
re-keys block by block instead of building one per block, with the
thread's scratch arrays for the block temporaries beside it.
"""

import itertools
import math
import threading

import numpy as np

# The SeedSequence hash constants (numpy/random/bit_generator.pyx).
_MASK32 = 0xFFFFFFFF
_INIT_A, _MULT_A, _INIT_B, _MULT_B = 0x43B0D7E5, 0x931E8875, 0x8B51F9DD, 0x58F38DED
_MIX_L, _MIX_R = 0xCA01F9DD, 0x4973F715
_FRESH = np.zeros(4, dtype=np.uint64)


def check_seed(seed):
    """seed as an int; a ValueError unless it is a non-negative integer (bool excluded)."""
    if isinstance(seed, bool) or not isinstance(seed, (int, np.integer)) or seed < 0:
        raise ValueError(f"seed must be a non-negative integer, got {seed!r}")
    return int(seed)


def block_keys(seed, n):
    """Philox keys (n, 2) of the streams 0..n-1 of seed.

    Row b is SeedSequence(seed, spawn_key=(b,)).generate_state(2,
    np.uint64).  The pool hashes the seed's 32-bit words, zero-padded to
    the pool size 4 as for every spawned sequence, and last the spawn
    key b, the one word that differs between streams, here a uint32
    array over b.  Python ints and uint32 arrays both wrap at 32 bits.
    """
    seed = check_seed(seed)
    words = [seed >> s & _MASK32 for s in range(0, max(seed.bit_length(), 1), 32)]
    words += [0] * (4 - len(words)) + [np.arange(n, dtype=np.uint32)]
    consts = {_MULT_A: _INIT_A, _MULT_B: _INIT_B}

    def hashed(value, mult=_MULT_A):
        const = consts[mult]
        consts[mult] = const * mult & _MASK32
        value = (value ^ const) * consts[mult] & _MASK32
        return value ^ value >> 16

    def mix(x, y):
        out = ((_MIX_L * x & _MASK32) - _MIX_R * y) & _MASK32
        return out ^ out >> 16

    pool = [hashed(w) for w in words[:4]]
    for src, dst in itertools.permutations(range(4), 2):
        pool[dst] = mix(pool[dst], hashed(pool[src]))
    for w in words[4:]:
        for dst in range(4):
            pool[dst] = mix(pool[dst], hashed(w))
    state = [hashed(v, _MULT_B).astype(np.uint64) for v in pool]
    return np.stack([state[0] | state[1] << 32, state[2] | state[3] << 32], axis=1)


class BlockStreams:
    """The streams of blocks with the given Philox keys (block_keys): item b is block b's.

    Item b is the calling thread's one Philox generator, re-keyed to the
    fresh stream of key b: counter 0, empty buffer, no half-used word.
    A slice holds the streams of a run of blocks, with the same per-thread
    generators and scratch arrays; iterating re-keys the one generator
    block after block, so a block's draws must all be taken before the
    next block's.
    """

    def __init__(self, keys, local=None):
        self.keys, self._local = keys, local or threading.local()

    def scratch(self, name, shape, dtype=np.complex128):
        """The calling thread's array called name, in this shape, kept from block to block while its size holds.

        Fresh block temporaries are freed at the top of the heap, which
        glibc trims and the next block pages in again, at up to a third
        of the block's time.
        """
        arrays = vars(self._local).setdefault("scratch", {})
        if name not in arrays or arrays[name].size != math.prod(shape):
            arrays[name] = np.empty(math.prod(shape), dtype)
        return arrays[name].reshape(shape)

    def __len__(self):
        return len(self.keys)

    def __iter__(self):
        return map(self.__getitem__, range(len(self.keys)))

    def __getitem__(self, b):
        if isinstance(b, slice):
            return BlockStreams(self.keys[b], self._local)
        gen = getattr(self._local, "gen", None)
        if gen is None:
            gen = self._local.gen = np.random.Generator(np.random.Philox(0))
        gen.bit_generator.state = {
            "bit_generator": "Philox", "state": {"counter": _FRESH, "key": self.keys[b]},
            "buffer": _FRESH, "buffer_pos": 4, "has_uint32": 0, "uinteger": 0,
        }
        return gen
