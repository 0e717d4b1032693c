"""Deterministic seed derivation.

Every source of randomness in the pipeline draws from a numpy Generator
seeded through :func:`derive_seed`, a SplitMix64 chain over the parent seed
and a sequence of integer/string tags. The scheme is stable across runs and
platforms, so a (master_seed, tags...) pair fully identifies a stream.
:func:`rng_from` seeds one Generator; :func:`rng_streams` gives the streams
of many final tags at once, each in the state :func:`rng_from` would give
it, for the thousands of streams GTG's permutations and the noisy inputs
of ``rel`` draw.
"""

from __future__ import annotations

from itertools import islice
from typing import Iterable, Iterator

import numpy as np

_MASK = (1 << 64) - 1
_GOLDEN, _MIX1, _MIX2 = 0x9E3779B97F4A7C15, 0xBF58476D1CE4E5B9, 0x94D049BB133111EB

# What np.random.default_rng(seed) runs on a 64-bit seed: numpy's
# SeedSequence hash (numpy/random/bit_generator.pyx) into a pool of four
# 32-bit words, four 64-bit words drawn from the pool, and PCG64's seeding
# of its 128-bit LCG with the first two as the state and the last two as
# the increment.
_POOL = 4
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_L, _MIX_R = 0xCA01F9DD, 0x4973F715
_PCG_MULT = 0x2360ED051FC65DA44385DF649FCCF645
_MASK32 = 0xFFFFFFFF
_MASK128 = (1 << 128) - 1
# Seeds computed at once: the 128-bit step runs on Python ints, and a few
# hundred of them at a time keep that transient small.
_CHUNK = 256


def splitmix64(x: int) -> int:
    """One SplitMix64 output step for a 64-bit state."""
    x = (x + _GOLDEN) & _MASK
    z = x
    z = ((z ^ (z >> 30)) * _MIX1) & _MASK
    z = ((z ^ (z >> 27)) * _MIX2) & _MASK
    return (z ^ (z >> 31)) & _MASK


def _tag_words(tag: int | str) -> list[int]:
    if isinstance(tag, (int, np.integer)):
        return [int(tag) & _MASK]
    if isinstance(tag, str):
        raw = tag.encode("utf-8")
        words = [
            int.from_bytes(raw[i : i + 8], "little") for i in range(0, len(raw), 8)
        ]
        words.append(len(raw))  # length word separates "ab","c" from "a","bc"
        return words
    raise TypeError(f"unsupported seed tag type: {type(tag)!r}")


def _chain(x: int, tags: tuple[int | str, ...]) -> int:
    for tag in tags:
        for word in _tag_words(tag):
            x = splitmix64(x ^ word)
    return x


def derive_seed(seed: int, *tags: int | str) -> int:
    """Derive a 64-bit child seed from ``seed`` and an ordered tag list."""
    x = int(seed) & _MASK
    if not tags:
        return splitmix64(x)
    return _chain(x, tags)


def rng_from(seed: int, *tags: int | str) -> np.random.Generator:
    """numpy Generator seeded by :func:`derive_seed`."""
    return np.random.default_rng(derive_seed(seed, *tags))


def rng_streams(
    seed: int, *tags: int | str, indices: Iterable[int]
) -> Iterator[np.random.Generator]:
    """For each ``i`` of ``indices``, a Generator in the state of
    ``rng_from(seed, *tags, i)``.

    The seeds and the PCG64 states are computed for a chunk of indices at
    once; the Generator yielded is one object, re-seated for each index, so
    draw from it before taking the next.
    """
    prefix = np.uint64(_chain(int(seed) & _MASK, tags))
    rng = np.random.default_rng(0)
    bit_generator = rng.bit_generator
    indices = iter(indices)
    while chunk := [int(i) & _MASK for i in islice(indices, _CHUNK)]:
        seeds = _splitmix64_array(prefix ^ np.array(chunk, dtype=np.uint64))
        for state, inc in zip(*_pcg64_states(seeds)):
            bit_generator.state = {
                "bit_generator": "PCG64",
                "state": {"state": state, "inc": inc},
                "has_uint32": 0,
                "uinteger": 0,
            }
            yield rng


def _splitmix64_array(x: np.ndarray) -> np.ndarray:
    """:func:`splitmix64` of each uint64 of ``x`` (uint64 arithmetic wraps)."""
    x = x + np.uint64(_GOLDEN)
    z = (x ^ (x >> np.uint64(30))) * np.uint64(_MIX1)
    z = (z ^ (z >> np.uint64(27))) * np.uint64(_MIX2)
    return z ^ (z >> np.uint64(31))


def _hash_consts(init: int, mult: int, calls: int) -> np.ndarray:
    """The running hash constant of SeedSequence's mixing: call c XORs with
    entry c and multiplies by entry c + 1."""
    return np.array([init * pow(mult, c, 1 << 32) & _MASK32 for c in range(calls + 1)], dtype=np.uint32)


# 4 hashes fill the pool, 12 mix it; generate_state hashes 8 words
_HASH_A = _hash_consts(_INIT_A, _MULT_A, _POOL * _POOL)
_HASH_B = _hash_consts(_INIT_B, _MULT_B, 2 * _POOL)


def _hashmix(values: np.ndarray, consts: np.ndarray) -> np.ndarray:
    """SeedSequence's hashmix of ``values`` (broadcast to one row per
    call) with ``len(consts) - 1`` successive hash constants."""
    values = values ^ consts[:-1, None]
    values *= consts[1:, None]
    return values ^ values >> 16


def _pcg64_states(seeds: np.ndarray) -> tuple[list[int], list[int]]:
    """The (state, inc) of ``PCG64(SeedSequence(s))`` for each uint64 ``s``."""
    # the seed's entropy words, low first, padded with zeros to the pool
    # size; a seed below 2**32 has one word, and its pad gives the same pool
    entropy = np.zeros((_POOL, len(seeds)), dtype=np.uint32)
    entropy[0] = seeds & _MASK32
    entropy[1] = seeds >> 32
    pool = _hashmix(entropy, _HASH_A[: _POOL + 1])
    call = _POOL
    for src in range(_POOL):
        # every other word, in order, mixed with a hash of this one
        dst = [d for d in range(_POOL) if d != src]
        hashed = _hashmix(pool[src], _HASH_A[call : call + _POOL])
        mixed = np.uint32(_MIX_L) * pool[dst] - np.uint32(_MIX_R) * hashed
        pool[dst] = mixed ^ mixed >> 16
        call += _POOL - 1
    words = _hashmix(pool[np.arange(2 * _POOL) % _POOL], _HASH_B).astype(np.uint64)
    # four little-endian uint64 words: the seed's high and low, then the
    # increment's
    seed_hi, seed_lo, inc_hi, inc_lo = (words[0::2] | words[1::2] << 32).astype(object)
    inc = (inc_hi << 64 | inc_lo) << 1 & _MASK128 | 1
    state = ((inc + (seed_hi << 64 | seed_lo)) * _PCG_MULT + inc) & _MASK128
    return state.tolist(), inc.tolist()
