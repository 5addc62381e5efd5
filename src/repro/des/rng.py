"""Deterministic named random substreams.

Every stochastic component of a simulation (task runtimes, bandwidth jitter,
failure injection, ...) draws from its own named substream derived from a
single root seed.  Two runs with the same root seed are identical; adding a
new consumer of randomness does not perturb existing streams (streams are
keyed by name, not by draw order).

A stream is a :class:`Stream`: numpy's ``default_rng(seed)`` (SeedSequence
seeding a PCG64) in pure Python, draw for draw and bit for bit, so a
simulation needs nothing beyond the standard library while every seeded
result stays what numpy's generator made it.  Anything with the same four
methods (a ``numpy.random.Generator`` included) can stand in for one.
"""

from __future__ import annotations

import hashlib
from math import exp, log1p
from typing import Sequence, TypeVar

from repro.des._ziggurat import fi, ki, wi

__all__ = ["RngRegistry", "Stream"]

T = TypeVar("T")

_M32 = 0xFFFFFFFF
_M64 = (1 << 64) - 1
_M128 = (1 << 128) - 1
#: PCG64's 128-bit LCG multiplier
_MULT = 0x2360ED051FC65DA44385DF649FCCF645
#: SeedSequence's hash constants
_INIT_A, _MULT_A, _INIT_B, _MULT_B = 0x43B0D7E5, 0x931E8875, 0x8B51F9DD, 0x58F38DED
_MIX_L, _MIX_R = 0xCA01F9DD, 0x4973F715
#: the ziggurat's rightmost box edge and its inverse
_ZIG_R = 3.6541528853610087963519472518
_ZIG_INV_R = 0.27366123732975827203338247596
_TWO_M53 = 1.0 / 9007199254740992.0


def _seed_words(seed: int) -> tuple[int, int]:
    """PCG64's ``(initstate, initseq)`` for ``seed``, as numpy's
    ``SeedSequence(seed).generate_state(4, uint64)`` derives them."""
    if seed < 0:
        raise ValueError("seed must be non-negative")
    entropy = []
    while True:  # little-endian 32-bit words; 0 is one word
        entropy.append(seed & _M32)
        seed >>= 32
        if not seed:
            break
    hash_const = _INIT_A

    def hashmix(value: int) -> int:
        nonlocal hash_const
        value ^= hash_const
        hash_const = hash_const * _MULT_A & _M32
        value = value * hash_const & _M32
        return value ^ value >> 16

    def mix(x: int, y: int) -> int:
        result = (_MIX_L * x - _MIX_R * y) & _M32
        return result ^ result >> 16

    pool = [hashmix(entropy[i] if i < len(entropy) else 0) for i in range(4)]
    for src in range(4):
        for dst in range(4):
            if src != dst:
                pool[dst] = mix(pool[dst], hashmix(pool[src]))
    for word in entropy[4:]:
        for dst in range(4):
            pool[dst] = mix(pool[dst], hashmix(word))
    state = []
    hash_const = _INIT_B
    for i in range(8):
        value = pool[i % 4] ^ hash_const
        hash_const = hash_const * _MULT_B & _M32
        value = value * hash_const & _M32
        state.append(value ^ value >> 16)
    v0, v1, v2, v3 = (state[k] | state[k + 1] << 32 for k in range(0, 8, 2))
    return v0 << 64 | v1, v2 << 64 | v3


class Stream:
    """numpy's ``default_rng(seed)`` for a non-negative integer ``seed``.

    The generator methods the simulator calls, each drawing exactly what
    ``numpy.random.Generator`` draws and returning the same float:
    :meth:`random`, :meth:`uniform`, :meth:`normal` (numpy's 256-box
    ziggurat) and :meth:`choice` (Lemire's bounded integers over numpy's
    buffered 32-bit draws).
    """

    __slots__ = ("_state", "_inc", "_half")

    def __init__(self, seed: int = 0):
        initstate, initseq = _seed_words(int(seed))
        inc = (initseq << 1 | 1) & _M128
        state = (inc + initstate) & _M128  # srandom: step from 0, add, step
        self._state = (state * _MULT + inc) & _M128
        self._inc = inc
        self._half: int | None = None  # the unused high half of a 64-bit draw

    def _next64(self) -> int:
        """Step the 128-bit LCG, then output its XSL-RR permutation."""
        state = self._state = (self._state * _MULT + self._inc) & _M128
        rot = state >> 122
        word = (state >> 64 ^ state) & _M64
        return (word >> rot | word << (64 - rot)) & _M64

    def random(self) -> float:
        """A float in [0, 1) with 53 random bits."""
        return (self._next64() >> 11) * _TWO_M53

    def uniform(self, low: float = 0.0, high: float = 1.0) -> float:
        return low + (high - low) * self.random()

    def normal(self, loc: float = 0.0, scale: float = 1.0) -> float:
        """``loc + scale * z`` for a standard normal ``z``."""
        while True:
            r = self._next64()
            idx = r & 0xFF
            rabs = r >> 9 & 0x000FFFFFFFFFFFFF
            z = rabs * wi[idx]
            if r & 0x100:
                z = -z
            if rabs < ki[idx]:
                return loc + scale * z  # 99.3% of draws end here
            if idx == 0:  # the tail beyond the last box
                while True:
                    xx = -_ZIG_INV_R * log1p(-self.random())
                    yy = -log1p(-self.random())
                    if yy + yy > xx * xx:
                        z = _ZIG_R + xx
                        return loc + scale * (-z if rabs >> 8 & 0x1 else z)
            if (fi[idx - 1] - fi[idx]) * self.random() + fi[idx] < exp(-0.5 * z * z):
                return loc + scale * z

    def _next32(self) -> int:
        half = self._half
        if half is not None:
            self._half = None
            return half
        word = self._next64()
        self._half = word >> 32
        return word & _M32

    def choice(self, population: Sequence[T]) -> T:
        """One element of ``population``, uniformly."""
        n = len(population)
        if n == 0:
            raise ValueError("a cannot be empty unless no samples are taken")
        if n == 1:
            return population[0]  # numpy draws nothing for a range of one
        m = self._next32() * n
        if m & _M32 < n:
            threshold = (_M32 + 1 - n) % n
            while m & _M32 < threshold:
                m = self._next32() * n
        return population[m >> 32]


class RngRegistry:
    """Factory of named, reproducible :class:`Stream` substreams.

    Parameters
    ----------
    seed:
        Root seed.  Substream seeds are derived as
        ``blake2b(root_seed || name)`` so they are stable across runs and
        independent of creation order.
    """

    def __init__(self, seed: int = 0):
        self.seed = int(seed)
        self._streams: dict[str, Stream] = {}

    def stream(self, name: str) -> Stream:
        """Return (creating on first use) the substream for ``name``."""
        if name not in self._streams:
            digest = hashlib.blake2b(
                f"{self.seed}:{name}".encode(), digest_size=8
            ).digest()
            sub_seed = int.from_bytes(digest, "little")
            self._streams[name] = Stream(sub_seed)
        return self._streams[name]
