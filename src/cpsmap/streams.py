"""Random streams of the Monte Carlo blocks.

Block b of a run with seed s draws from the stream
Generator(SFC64(SeedSequence(s, spawn_key=(b,)))), NumPy's spawned
parallel streams.  block_keys takes the pool that SeedSequence(s)
mixes from the seed and derives the SFC64 seed words of all blocks
from it in one vectorized pass of SeedSequence's hash over the spawn
keys and output words; NumPy's stream-compatibility policy freezes
that hash.  Each thread keeps one SFC64 generator for its lifetime,
which every BlockStreams re-keys block by block instead of building
one per block; so on one thread, one block's draws must finish before
any other block's draws start, across all BlockStreams objects.  The
scratch arrays for the block temporaries belong to the BlockStreams
and its thread, and die with them.  BlockStreams.bit_draws reads the
raw SFC64 words under NumPy's coin and power-of-two integer draws, one
random_raw read per block, and returns those draws without a Generator
call; float32_uniforms reads a block's float32 random() draws off the
raw words of its stream in the same way, one random_raw read per call,
as the integer words that the sphere draw scales once per group.
"""

import functools
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
# Each thread's one SFC64 generator, built on the thread's first draw and re-keyed for every block.
_THREAD = threading.local()


def is_integer(value):
    """Whether value is a Python or NumPy integer, bool excluded."""
    return isinstance(value, (int, np.integer)) and not isinstance(value, bool)


def check_seed(seed):
    """seed as an int; a ValueError unless it is a non-negative integer (bool excluded)."""
    if not is_integer(seed) or seed < 0:
        raise ValueError(f"seed must be a non-negative integer, got {seed!r}")
    return int(seed)


@functools.lru_cache(maxsize=8)
def _hash_constants(init, mult, start, count):
    """The read-only (count, 1) uint64 column of SeedSequence's hash constants start, start + 1, ... of (init, mult).

    block_keys asks for 5 or 7 constants per (init, mult) and seed word
    count; with their array headers the 8 entries retain about 4 KB, at
    any F.
    """
    consts = np.array([init * pow(mult, start + i, 1 << 32) & _MASK32 for i in range(count)], dtype=np.uint64)
    consts.flags.writeable = False
    return consts[:, None]


def _hashed(words, init, mult, start):
    """SeedSequence's hashmix of the rows of words (uint64 < 2**32), with the hash constants start, start + 1, ... of (init, mult)."""
    consts = _hash_constants(init, mult, start, len(words) + 1)
    out = (words ^ consts[:-1]) * consts[1:] & _MASK32
    return out ^ out >> 16


def float32_uniforms(rng, out):
    """Write rng.random(out.shape, dtype=np.float32), bit for bit, into the uint32 array out as the words 2**24 u, from one random_raw read of rng's SFC64 stream; returns out.

    NumPy's float32 random() is (next_uint32 >> 8) 2**-24, and SFC64's
    next_uint32 hands out a raw word's low half, then its high half; so
    the n words are the halves of ceil(n / 2) raw words, low half first,
    shifted right by 8.  Their float32 product with a float32 scale *
    2**-24 is scale * u bit for bit, since the power of two commutes with
    rounding (cps.sphere_normals).  Valid only while rng holds no pending
    half word: on a re-keyed block stream (BlockStreams) whose earlier
    draws all take whole words, as float64 uniforms, choice(k, p=...)
    and the ziggurat exponentials do.  An odd n leaves the last word's
    high half unread, which random() would keep pending for the next
    draw, so the uniforms must be the block's last draw.
    """
    n = out.size
    halves = rng.bit_generator.random_raw(-(-n // 2)).astype("<u8", copy=False).view("<u4")[:n]
    return np.right_shift(halves.reshape(out.shape), 8, out=out)


def block_keys(seed, n):
    """SFC64 starting states (n, 4) of the streams 0..n-1 of seed.

    Row b is SeedSequence(seed, spawn_key=(b,)).generate_state(3,
    np.uint64) followed by the counter 1, the state SFC64 warms up from.
    The seed's 32-bit words, zero-padded to the pool size 4, mix into
    the pool of SeedSequence(seed) itself; the spawn key b, the one word
    that differs between streams, mixes in after them, with the hash
    constants that follow the seed words', and the six output words
    cycle through the pool.  Both run as (4, n) uint64 arrays masked to
    32 bits.
    """
    seed = check_seed(seed)
    n_words = max(1, -(-seed.bit_length() // 32))
    pool = np.random.SeedSequence(seed).pool.astype(np.uint64)[:, None]
    key = np.broadcast_to(np.arange(n, dtype=np.uint64), (4, n))
    pool = (_MIX_L * pool - _MIX_R * _hashed(key, _INIT_A, _MULT_A, 16 + 4 * max(0, n_words - 4))) & _MASK32
    pool ^= pool >> 16
    state = _hashed(pool[[0, 1, 2, 3, 0, 1]], _INIT_B, _MULT_B, 0)
    out = np.ones((n, 4), dtype=np.uint64)
    out[:, :3] = (state[0::2] | state[1::2] << 32).T
    return out


class BlockStreams:
    """The streams of blocks with the given SFC64 starting states (block_keys): item b is block b's.

    Item b is the calling thread's one SFC64 generator, which the thread
    keeps for its lifetime, re-keyed to the fresh stream of block b: its
    starting state, no half-used word, then SFC64's warm-up outputs.  A
    slice holds the streams of a run of blocks, with the same scratch
    arrays; iterating re-keys the one generator block after block.  Every
    BlockStreams on a thread re-keys that thread's one generator, so on
    one thread a block's draws must all be taken before any other block's,
    of this or any other BlockStreams.  The scratch arrays are kept per
    BlockStreams and thread, so none outlives the BlockStreams.
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
        for bits in self._rekeyed():
            bits.random_raw(_WARM_UP)
            yield _THREAD.gen

    def __getitem__(self, b):
        if isinstance(b, slice):
            return BlockStreams(self.keys[b], self._local)
        return next(iter(BlockStreams(self.keys[b][None], self._local)))

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
        for row, gen in zip(raw, self._rekeyed()):
            row[:] = gen.random_raw(_WARM_UP + n)[_WARM_UP:]
        words = raw[:, lead:]
        if bits <= 32:
            words = words.astype("<u8", copy=False).view("<u4")[:, :nb]
        ints = words >> words.dtype.type(8 * words.itemsize - bits)
        return (raw[:, :nb] >> 63 == 0 if coins else None), ints

    def _rekeyed(self):
        """The calling thread's SFC64 bit generator, set in turn to each block's starting state with no half-used word."""
        gen = getattr(_THREAD, "gen", None)
        if gen is None:
            gen = _THREAD.gen = np.random.Generator(np.random.SFC64(0))
        # one state dict for all the blocks, whose inner state words the setter copies
        bits, state = gen.bit_generator, {"bit_generator": "SFC64", "state": {}, "has_uint32": 0, "uinteger": 0}
        for key in self.keys:
            state["state"]["state"] = key
            bits.state = state
            yield bits
