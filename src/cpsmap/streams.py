"""Random streams of the Monte Carlo blocks.

Block b of a run with seed s draws from the stream
Generator(SFC64(SeedSequence(s, spawn_key=(b,)))), NumPy's spawned
parallel streams.  block_keys derives the SFC64 seed words of all
blocks in one vectorized pass of SeedSequence's hash, which NumPy's
stream-compatibility policy freezes, and BlockStreams hands each worker
thread one SFC64 generator that it re-keys block by block instead of
building one per block, with the thread's scratch arrays for the block
temporaries beside it.  BlockStreams.bit_draws reads the raw SFC64
words under NumPy's coin and power-of-two integer draws, one random_raw
read per block, and returns those draws without a Generator call.
"""

import itertools
import math
import threading

import numpy as np

# The SeedSequence hash constants (numpy/random/bit_generator.pyx).
_MASK32 = 0xFFFFFFFF
_INIT_A, _MULT_A, _INIT_B, _MULT_B = 0x43B0D7E5, 0x931E8875, 0x8B51F9DD, 0x58F38DED
_MIX_L, _MIX_R = 0xCA01F9DD, 0x4973F715
# SFC64 seeding (numpy/random/src/sfc64/sfc64.h): the state is the three
# seed words and a counter of 1, advanced by 12 discarded outputs.
_WARM_UP = 12


def is_integer(value):
    """Whether value is a Python or NumPy integer, bool excluded."""
    return isinstance(value, (int, np.integer)) and not isinstance(value, bool)


def check_seed(seed):
    """seed as an int; a ValueError unless it is a non-negative integer (bool excluded)."""
    if not is_integer(seed) or seed < 0:
        raise ValueError(f"seed must be a non-negative integer, got {seed!r}")
    return int(seed)


def block_keys(seed, n):
    """SFC64 starting states (n, 4) of the streams 0..n-1 of seed.

    Row b is SeedSequence(seed, spawn_key=(b,)).generate_state(3,
    np.uint64) followed by the counter 1, the state SFC64 warms up from.
    The pool hashes the seed's 32-bit words, zero-padded to the pool size
    4 as for every spawned sequence, and last the spawn key b, the one
    word that differs between streams: Python ints up to there, then
    (4, n) uint32 arrays over the pool words and b, which wrap at 32
    bits as the ints are masked to.  The six output words cycle through
    the pool.
    """
    seed = check_seed(seed)
    words = [seed >> s & _MASK32 for s in range(0, max(seed.bit_length(), 1), 32)]
    words += [0] * (4 - len(words))
    consts = {_MULT_A: _INIT_A, _MULT_B: _INIT_B}

    def hashed(value, mult=_MULT_A):
        """value hashed with the next hash constant of mult, or the rows of a uint32 array with the next len(value)."""
        cs = [consts[mult]]
        for _ in range(1 if isinstance(value, int) else len(value)):
            cs.append(cs[-1] * mult & _MASK32)
        consts[mult] = cs[-1]
        if isinstance(value, int):
            value = (value ^ cs[0]) * cs[1] & _MASK32
        else:
            value = (value ^ np.array(cs[:-1], np.uint32)[:, None]) * np.array(cs[1:], np.uint32)[:, None]
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
    key = np.broadcast_to(np.arange(n, dtype=np.uint32), (4, n))
    pool = mix(np.array(pool, dtype=np.uint32)[:, None], hashed(key))
    state = hashed(pool[[0, 1, 2, 3, 0, 1]], _MULT_B).astype(np.uint64)
    out = np.ones((n, 4), dtype=np.uint64)
    out[:, :3] = (state[0::2] | state[1::2] << 32).T
    return out


class BlockStreams:
    """The streams of blocks with the given SFC64 starting states (block_keys): item b is block b's.

    Item b is the calling thread's one SFC64 generator, re-keyed to the
    fresh stream of block b: its starting state, no half-used word, then
    SFC64's warm-up outputs.  A slice holds the streams of a run of
    blocks, with the same per-thread generators and scratch arrays;
    iterating re-keys the one generator block after block, so a block's
    draws must all be taken before the next block's.
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
        self._rekey(b).random_raw(_WARM_UP)
        return self._local.gen

    def bit_draws(self, nb, bits, coins=False):
        """Every block's rng.random(nb) < 0.5, if coins, then rng.integers(2**bits, size=nb), for 1 <= bits <= 63.

        One random_raw read per block takes the warm-up outputs and the
        words under these draws, read off as NumPy forms them: random() <
        0.5 is a word's top bit clear; the Lemire draw of a power-of-two
        range is the top bits of a 32-bit half word (low half first) while
        bits <= 32, of a whole word above.  Returns (coins or None,
        integers), each (len(self), nb), the integers uint32 or uint64.
        """
        lead = nb if coins else 0
        n = lead + (nb if bits > 32 else (nb + 1) // 2)
        raw = np.empty((len(self.keys), n), dtype=np.uint64)
        for b in range(len(self.keys)):
            raw[b] = self._rekey(b).random_raw(_WARM_UP + n)[_WARM_UP:]
        words = raw[:, lead:]
        if bits <= 32:
            words = words.astype("<u8", copy=False).view("<u4")[:, :nb]
        ints = words >> words.dtype.type(8 * words.itemsize - bits)
        return (raw[:, :nb] >> 63 == 0 if coins else None), ints

    def _rekey(self, b):
        """The calling thread's SFC64 bit generator, set to block b's starting state with no half-used word."""
        gen = getattr(self._local, "gen", None)
        if gen is None:
            gen = self._local.gen = np.random.Generator(np.random.SFC64(0))
        bits = gen.bit_generator
        bits.state = {
            "bit_generator": "SFC64", "state": {"state": self.keys[b]}, "has_uint32": 0, "uinteger": 0,
        }
        return bits
