"""Partition-invariant randomness for sharded dispatch.

A sequential RNG stream is the enemy of sharded determinism: the draw a
packet consumes depends on every draw before it, so any partition of the
world reorders the stream and changes every outcome.  :class:`KeyedHopRng`
replaces the stream with a *keyed* generator — each draw is a pure function
of ``(root seed, current key, draw index under that key)`` hashed through
BLAKE2b — so a hop's backoff and delivery draws depend only on the hop's
identity, never on which shard computes them or what was drawn before.

A shard's :class:`~repro.shard.dispatch.ShardHops` owns the instance and
re-keys it before the MAC grant (``rekey("hop", sender, seq)``), and the
dispatcher addresses every delivery Bernoulli, unicast or broadcast, as
``("rx", sender, seq, receiver)`` through :meth:`KeyedHopRng.uniforms_at`.
The dispatcher installs it as ``stack.ctx.rng``, where it satisfies the
slice of the ``numpy.random.Generator`` surface the stack actually uses:
``random()`` and ``exponential(scale)``.
"""

from __future__ import annotations

import hashlib
import math
from typing import Any, Tuple

__all__ = ["KeyedHopRng"]

_U53 = 2.0**-53


class KeyedHopRng:
    """Hash-keyed uniform source: draws are addressed, not sequenced."""

    __slots__ = ("seed", "_key", "_index")

    def __init__(self, seed: int):
        self.seed = int(seed)
        self._key: Tuple[Any, ...] = ()
        self._index = 0

    def rekey(self, *parts: Any) -> None:
        """Address the next draws: resets the per-key draw counter."""
        self._key = parts
        self._index = 0

    def _uniform(self) -> float:
        payload = repr((self.seed, self._key, self._index)).encode("utf-8")
        self._index += 1
        raw = hashlib.blake2b(payload, digest_size=8).digest()
        # Top 53 bits -> uniform double in [0, 1), same mapping numpy uses.
        return (int.from_bytes(raw, "big") >> 11) * _U53

    def uniforms_at(self, prefix: Tuple[Any, ...], suffixes: Any) -> list:
        """Batch of addressed first draws: one uniform per suffix.

        ``uniforms_at(("rx", s, q), ids)[i]`` equals
        ``rekey("rx", s, q, ids[i]); random()`` — same payload, same hash,
        same double — without mutating the instance key, so a whole
        broadcast's delivery Bernoullis come back in one call while
        staying pure functions of each hop's identity.
        """
        seed = self.seed
        blake2b = hashlib.blake2b
        out = []
        append = out.append
        for suffix in suffixes:
            payload = repr((seed, prefix + (suffix,), 0)).encode("utf-8")
            raw = blake2b(payload, digest_size=8).digest()
            append((int.from_bytes(raw, "big") >> 11) * _U53)
        return out

    # ---------------------------------------------- Generator-shaped surface

    def random(self) -> float:
        return self._uniform()

    def exponential(self, scale: float = 1.0) -> float:
        # Inverse-CDF with mean ``scale`` (numpy's parameterization);
        # log1p(-u) keeps precision for small u and never sees log(0).
        return -float(scale) * math.log1p(-self._uniform())

    def __getattr__(self, name: str) -> Any:
        raise AttributeError(
            f"KeyedHopRng has no {name!r}: only random() and exponential() "
            "are partition-invariant; components drawing anything else are "
            "not shard-safe"
        )
