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
dispatcher addresses every delivery Bernoulli as ``("rx", sender, seq,
receiver)``: a broadcast's through :meth:`KeyedHopRng.uniforms_at`, a
unicast's through :meth:`KeyedHopRng.uniform_at` from the receiver head
``ShardHops.hop`` caches.  The dispatcher installs it as
``stack.ctx.rng``, where it satisfies the slice of the
``numpy.random.Generator`` surface the stack actually uses: ``random()``
and ``exponential(scale)``.
"""

from __future__ import annotations

import hashlib
import math
from typing import Any, Tuple

__all__ = ["KeyedHopRng"]

_U53 = 2.0**-53


class KeyedHopRng:
    """Hash-keyed uniform source: draws are addressed, not sequenced.

    A draw's payload is the text ``repr((seed, key, index))``.  Its head —
    everything up to the index — changes only on :meth:`rekey`, so it is
    built once there and each draw hashes ``head + repr(index) + ")"``.
    """

    __slots__ = ("seed", "seed_head", "_head", "_index")

    def __init__(self, seed: int):
        self.seed = int(seed)
        #: ``"(" + repr(seed) + ", "``: the start of every payload.
        self.seed_head = f"({self.seed!r}, "
        self.rekey()

    def rekey(self, *parts: Any) -> None:
        """Address the next draws: resets the per-key draw counter."""
        self._head = f"{self.seed_head}{parts!r}, "
        self._index = 0

    def uniforms_at(self, prefix: Tuple[Any, ...], suffixes: Any) -> list:
        """Batch of addressed first draws: one uniform per suffix.

        ``uniforms_at(("rx", s, q), ids)[i]`` equals
        ``rekey("rx", s, q, ids[i]); random()`` — same payload, same hash,
        same double — without mutating the instance key, so a whole
        broadcast's delivery Bernoullis come back in one call while
        staying pure functions of each hop's identity.
        """
        # The key ``prefix + (suffix,)`` as text around the suffix; a
        # one-part key keeps its tuple comma.
        head = self.seed_head + "(" + "".join([f"{part!r}, " for part in prefix])
        close = "), 0)" if prefix else ",), 0)"
        blake2b = hashlib.blake2b
        out = []
        append = out.append
        for suffix in suffixes:
            raw = blake2b(f"{head}{suffix!r}{close}".encode(), digest_size=8).digest()
            append((int.from_bytes(raw, "big") >> 11) * _U53)
        return out

    def uniform_at(self, head: str, suffix: Any) -> float:
        """``uniforms_at(prefix, (suffix,))[0]`` from the prefix's head text.

        ``head`` is ``seed_head + "("`` followed by ``repr(part) + ", "``
        for each part of a non-empty ``prefix``, built once by the caller
        (:attr:`~repro.shard.dispatch.ShardHops.rx_head`).
        """
        raw = hashlib.blake2b(f"{head}{suffix!r}), 0)".encode(), digest_size=8).digest()
        return (int.from_bytes(raw, "big") >> 11) * _U53

    # ---------------------------------------------- Generator-shaped surface

    def random(self) -> float:
        index = self._index
        self._index = index + 1
        raw = hashlib.blake2b(f"{self._head}{index})".encode(), digest_size=8).digest()
        # Top 53 bits -> uniform double in [0, 1), same mapping numpy uses.
        return (int.from_bytes(raw, "big") >> 11) * _U53

    def exponential(self, scale: float = 1.0) -> float:
        # Inverse-CDF with mean ``scale`` (numpy's parameterization);
        # log1p(-u) keeps precision for small u and never sees log(0).
        return -float(scale) * math.log1p(-self.random())

    def __getattr__(self, name: str) -> Any:
        raise AttributeError(
            f"KeyedHopRng has no {name!r}: only random() and exponential() "
            "are partition-invariant; components drawing anything else are "
            "not shard-safe"
        )
