"""Deterministic random-number management.

Every stochastic component in the library draws from a named stream derived
from a single experiment seed.  Two runs with the same seed produce identical
traces (a tested invariant), while distinct streams are statistically
independent, so adding a new consumer does not perturb existing ones.
"""

from __future__ import annotations

import hashlib
from typing import Any, Dict, List, Optional, Sequence, Tuple

import numpy as np

__all__ = ["derive_seed", "RngStreams", "generator_draws", "generator_digest", "pcg64_seed_states"]

#: The PCG64 LCG multiplier (``PCG_DEFAULT_MULTIPLIER_128``); the state
#: advances ``s' = s * MULT + inc (mod 2**128)`` once per 64-bit output.
_PCG64_MULT = 47026247687942121848144207491837523525
_PCG64_MASK = (1 << 128) - 1


def _lcg_distance(start: int, target: int, mult: int, inc: int, mask: int) -> Optional[int]:
    """Steps from ``start`` to ``target`` along an LCG orbit, or ``None``.

    The classic O(log period) walk (Melissa O'Neill's ``pcg_extras``
    distance): at iteration ``k``, ``cur_mult/cur_plus`` jump ``2**k``
    steps, and because the low ``k`` bits of a power-of-two-modulus LCG
    have period ``2**k``, matching the target bit-by-bit recovers the
    distance.  Returns ``None`` if the states never converge within the
    state width — i.e. they belong to different increments/sequences.
    """
    the_bit = 1
    distance = 0
    cur_state, cur_mult, cur_plus = start, mult, inc
    while cur_state != target:
        if (cur_state ^ target) & the_bit:
            cur_state = (cur_state * cur_mult + cur_plus) & mask
            distance |= the_bit
        if (cur_state ^ target) & the_bit:
            return None  # different sequence: bit can no longer change
        the_bit <<= 1
        if the_bit > mask:
            return None
        cur_plus = ((cur_mult + 1) * cur_plus) & mask
        cur_mult = (cur_mult * cur_mult) & mask
    return distance


def generator_draws(gen: np.random.Generator, seed: int) -> Optional[int]:
    """How many 64-bit words ``gen`` has produced since ``seed`` created it.

    Works by measuring the LCG distance between a freshly seeded PCG64
    state and the generator's current state — no wrapping or counting on
    the draw path, so the hot path stays untouched.  Returns ``None`` for
    non-PCG64 bit generators or states from a different sequence.
    """
    state = gen.bit_generator.state
    if state.get("bit_generator") != "PCG64":
        return None
    fresh = np.random.default_rng(seed).bit_generator.state
    if fresh["state"]["inc"] != state["state"]["inc"]:
        return None
    return _lcg_distance(
        fresh["state"]["state"],
        state["state"]["state"],
        _PCG64_MULT,
        state["state"]["inc"],
        _PCG64_MASK,
    )


def pcg64_seed_states(seeds: Sequence[int]) -> List[Tuple[int, int]]:
    """``(state, inc)`` of ``np.random.default_rng(seed)`` for each seed below 2**64.

    ``SeedSequence``'s documented mixing (a pool of four uint32 words, then
    eight output words) runs once over the batch in wrapping uint32 numpy
    arithmetic; PCG64's ``srandom`` finishes each seed in Python integers.
    A PCG64 whose ``state`` is set to a pair continues as one constructed
    from that seed would, for far less than constructing it.
    """
    entropy = np.asarray(seeds, dtype=np.uint64)
    zeros = np.zeros(len(entropy), dtype=np.uint32)
    pool = [(entropy & 0xFFFFFFFF).astype(np.uint32), (entropy >> 32).astype(np.uint32)]
    pool += [zeros, zeros]

    def hashmix(value: np.ndarray, const: int, mult: int) -> Tuple[np.ndarray, int]:
        bumped = const * mult & 0xFFFFFFFF
        value = (value ^ np.uint32(const)) * np.uint32(bumped)
        return value ^ (value >> 16), bumped

    const = 0x43B0D7E5
    for i in range(4):
        pool[i], const = hashmix(pool[i], const, 0x931E8875)
    for src in range(4):
        for dst in range(4):
            if src != dst:
                mixed, const = hashmix(pool[src], const, 0x931E8875)
                mixed = np.uint32(0xCA01F9DD) * pool[dst] - np.uint32(0x4973F715) * mixed
                pool[dst] = mixed ^ (mixed >> 16)
    const = 0x8B51F9DD
    words = []
    for i in range(8):
        word, const = hashmix(pool[i % 4], const, 0x58F38DED)
        words.append(word.astype(np.uint64))
    # Little-endian word pairs make four uint64: initial state (w0 << 64 | w1),
    # stream selector (w2 << 64 | w3); srandom is two LCG steps around adding the first.
    w0, w1, w2, w3 = ((words[k] | (words[k + 1] << 32)).tolist() for k in (0, 2, 4, 6))
    out = []
    for hi, lo, seq_hi, seq_lo in zip(w0, w1, w2, w3):
        inc = (((seq_hi << 64 | seq_lo) << 1) | 1) & _PCG64_MASK
        out.append((((inc + (hi << 64 | lo)) * _PCG64_MULT + inc) & _PCG64_MASK, inc))
    return out


def generator_digest(gen: np.random.Generator) -> str:
    """Process-independent digest of a generator's exact current state."""
    state = gen.bit_generator.state
    digest = hashlib.blake2b(digest_size=8)
    digest.update(repr(sorted(_flatten_state(state))).encode("utf-8"))
    return digest.hexdigest()


def _flatten_state(state: Dict[str, Any], prefix: str = ""):
    for key, value in state.items():
        if isinstance(value, dict):
            yield from _flatten_state(value, f"{prefix}{key}.")
        else:
            yield (f"{prefix}{key}", repr(value))


def derive_seed(root_seed: int, *names: str) -> int:
    """Derive a child seed from ``root_seed`` and a path of stream names.

    The derivation is a stable hash, so it does not depend on creation order
    or on Python's per-process hash randomization.
    """
    hasher = hashlib.sha256()
    hasher.update(str(int(root_seed)).encode("utf-8"))
    for name in names:
        hasher.update(b"/")
        hasher.update(name.encode("utf-8"))
    return int.from_bytes(hasher.digest()[:8], "big")


class RngStreams:
    """A factory of named, independent :class:`numpy.random.Generator` streams.

    >>> streams = RngStreams(seed=7)
    >>> a = streams.get("mobility")
    >>> b = streams.get("channel")
    >>> a is streams.get("mobility")
    True
    """

    def __init__(self, seed: int = 0):
        self.seed = int(seed)
        self._streams: Dict[str, np.random.Generator] = {}

    def get(self, name: str) -> np.random.Generator:
        """Return the generator for ``name``, creating it on first use."""
        if name not in self._streams:
            self._streams[name] = np.random.default_rng(
                derive_seed(self.seed, name)
            )
        return self._streams[name]

    def spawn(self, name: str) -> "RngStreams":
        """Return a child ``RngStreams`` rooted under ``name``.

        Useful for handing a subsystem its own namespace of streams.
        """
        return RngStreams(derive_seed(self.seed, name))

    def reset(self) -> None:
        """Drop all streams so the next ``get`` starts from the seed again."""
        self._streams.clear()

    def draw_counts(self) -> Dict[str, Optional[int]]:
        """Exact 64-bit outputs drawn per stream, by stream name.

        Computed from generator state (the LCG distance walk), so reading
        it costs nothing on the draw path; ``None`` marks a stream whose
        state cannot be attributed to its derived seed.
        """
        return {
            name: generator_draws(self._streams[name], derive_seed(self.seed, name))
            for name in sorted(self._streams)
        }

    def stream_states(self) -> list:
        """Provenance rows for every stream touched so far.

        One ``{"name", "seed", "draws", "state_digest"}`` dict per stream,
        sorted by name — the RNG identity section of a RunManifest.
        """
        out = []
        for name in sorted(self._streams):
            gen = self._streams[name]
            seed = derive_seed(self.seed, name)
            out.append(
                {
                    "name": name,
                    "seed": seed,
                    "draws": generator_draws(gen, seed),
                    "state_digest": generator_digest(gen),
                }
            )
        return out

    def __repr__(self) -> str:
        return f"RngStreams(seed={self.seed}, streams={sorted(self._streams)})"
