"""Wireless propagation: log-distance path loss, shadowing, jamming.

The model is standard: received power (dBm) is transmit power minus a
log-distance path loss, plus a per-link lognormal shadowing term.  Delivery
succeeds with a probability that is a smooth (logistic) function of SINR,
where interference includes active jammers; the logistic's softness stands
in for per-transmission fast fading, which is never drawn.  This is the
classic abstraction used by packet-level MANET simulators; it reproduces the
qualitative effects the paper's arguments rely on (range limits, partitions,
jamming-induced loss).

Hot-path notes
--------------
Propagation parameters are construction-time constants, which makes the
two expensive per-link terms memoizable:

* :meth:`Channel.shadowing_db` is static per link, so the draw is cached per
  node pair.  A miss constructs the link's seeded generator (11 of its 15 us);
  a whole-world pass calls :meth:`Channel.prime_shadowing` first, which does
  the seeding of all its links at once and seats one reused generator on
  each link's stream for the same draw, bit for bit.  ``build_topology`` is
  one such pass; the broadcast path's first row refill of each topology era
  is the other.
* :meth:`Channel.path_loss_db` caches per distinct distance (static worlds
  repeat the same distances forever; the cache is size-capped so mobile
  worlds cannot grow it without bound).

Neither depends on jamming, so a jammer edit drops neither;
every jammer-dependent result carries the :meth:`jam_signature` of the
moment it was computed — attack scenarios flip ``Jammer.active`` in place,
which must never serve stale interference from a cache.

The delivery API is two methods.  :meth:`delivery_probability_batch` walks
the receivers of one transmission once, reading the path-loss and shadowing
memos in place and computing SINR and the logistic in the same pass; it is
the only implementation of that chain (:meth:`delivery_probability` is its
batch of one, and ``tests/net/frozen_oracles.py`` holds the reference).
:meth:`delivery_verdicts` turns those probabilities and one uniform per
receiver into decode verdicts.  Transcendentals (``log10``/``exp``)
deliberately stay on scalar ``math.*``: numpy's SIMD loops are *not*
bit-identical to libm on all hardware, and the golden fingerprints pin exact
trace bytes.  numpy is used only where it is IEEE-exact — elementwise
multiply and compare of the final verdicts — so a wide batch through numpy
and a narrow one through the list comprehension return the same bits.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, Iterable, List, Sequence, Tuple

import numpy as np

from repro.errors import ConfigurationError
from repro.util.geometry import Point, distance
from repro.util.rng import derive_seed, pcg64_seed_states

__all__ = ["Channel", "Jammer"]

#: Cap on the per-distance path-loss memo; mobile worlds generate unbounded
#: distinct distances, so the cache resets rather than grows past this.
_PL_CACHE_MAX = 1 << 16

#: Batch size at which the numpy verdict compare beats the scalar loop.
_NP_VERDICT_MIN = 8
#: Links `prime_shadowing` seeds per batch: big enough to amortise the numpy
#: seed mixing, small enough that its seeds and state words stay a few MiB.
_SHADOW_BATCH = 2048


def _dbm_to_mw(dbm: float) -> float:
    return 10.0 ** (dbm / 10.0)


def _mw_to_dbm(mw: float) -> float:
    return 10.0 * math.log10(max(mw, 1e-30))


@dataclass
class Jammer:
    """A broadband interferer at a fixed position.

    ``active`` can be toggled by attack scenarios; ``power_dbm`` is the
    radiated power, attenuated toward the receiver with the same path-loss
    law as legitimate transmitters.
    """

    position: Point
    power_dbm: float = 30.0
    active: bool = True

    def interference_mw(self, channel: "Channel", at: Point) -> float:
        if not self.active:
            return 0.0
        d = distance(self.position, at)
        rx_dbm = self.power_dbm - channel.path_loss_db(d)
        return _dbm_to_mw(rx_dbm)


class Channel:
    """Log-distance path-loss channel with shadowing and jamming.

    Parameters
    ----------
    path_loss_exponent:
        2.0 for free space, ~3.0 for urban outdoor (default), 4+ indoors.
    shadowing_sigma_db:
        Std-dev of the per-link lognormal shadowing term.  Shadowing is
        *static per link* (deterministic from the seed and the node pair),
        matching the physical interpretation of obstacles.
    fading_sigma_db:
        Stored but never drawn: the logistic's ``sinr_softness_db`` stands
        in for fast fading.  Kept so existing constructions still work.
    sinr_threshold_db:
        SINR at which delivery probability is 50%.

    Propagation parameters are fixed at construction; the memo caches
    below rely on that (build a new Channel to model different physics).
    """

    def __init__(
        self,
        *,
        path_loss_exponent: float = 3.0,
        reference_loss_db: float = 40.0,
        reference_distance_m: float = 1.0,
        shadowing_sigma_db: float = 4.0,
        fading_sigma_db: float = 2.0,
        noise_floor_dbm: float = -95.0,
        sinr_threshold_db: float = 10.0,
        sinr_softness_db: float = 1.5,
        seed: int = 0,
    ):
        if path_loss_exponent <= 0:
            raise ConfigurationError("path_loss_exponent must be positive")
        if reference_distance_m <= 0:
            raise ConfigurationError("reference_distance_m must be positive")
        self.path_loss_exponent = path_loss_exponent
        self.reference_loss_db = reference_loss_db
        self.reference_distance_m = reference_distance_m
        self.shadowing_sigma_db = shadowing_sigma_db
        self.fading_sigma_db = fading_sigma_db
        self.noise_floor_dbm = noise_floor_dbm
        self.sinr_threshold_db = sinr_threshold_db
        self.sinr_softness_db = sinr_softness_db
        self.seed = seed
        self.jammers: List[Jammer] = []
        # The one generator prime_shadowing re-seats on each link's stream.
        self._shadow_rng = np.random.Generator(np.random.PCG64(0))
        # Memo caches (see module docstring).  Bumping _jam_epoch is how
        # add/clear_jammers invalidates anything keyed on a jam signature.
        self._shadow_cache: Dict[Tuple[int, int], float] = {}
        self._pl_cache: Dict[float, float] = {}
        self._jam_epoch = 0
        self._noise_mw = _dbm_to_mw(noise_floor_dbm)

    # ------------------------------------------------------------ propagation

    def path_loss_db(self, d: float) -> float:
        """Deterministic log-distance path loss at distance ``d`` meters."""
        cached = self._pl_cache.get(d)
        if cached is not None:
            return cached
        clamped = max(d, self.reference_distance_m)
        loss = self.reference_loss_db + 10.0 * self.path_loss_exponent * math.log10(
            clamped / self.reference_distance_m
        )
        cache = self._pl_cache
        if len(cache) >= _PL_CACHE_MAX:
            cache.clear()
        cache[d] = loss
        return loss

    def shadowing_db(self, node_a: int, node_b: int) -> float:
        """Static per-link shadowing, symmetric in the node pair."""
        if self.shadowing_sigma_db <= 0:
            return 0.0
        key = (node_a, node_b) if node_a <= node_b else (node_b, node_a)
        cached = self._shadow_cache.get(key)
        if cached is not None:
            return cached
        rng = np.random.default_rng(
            derive_seed(self.seed, "shadow", str(key[0]), str(key[1]))
        )
        value = float(rng.normal(0.0, self.shadowing_sigma_db))
        self._shadow_cache[key] = value
        return value

    def prime_shadowing(self, pairs: Iterable[Tuple[int, int]]) -> None:
        """Fill the shadowing memo for every pair it lacks, in batches.

        Each link keeps its ``derive_seed`` stream and ``normal(0.0, sigma)``
        draw, so :meth:`shadowing_db` returns the same bits either way; saved
        is a generator per link (:func:`~repro.util.rng.pcg64_seed_states`).
        Links are seeded ``_SHADOW_BATCH`` at a time, in first-seen order.
        """
        if self.shadowing_sigma_db <= 0:
            return
        cache = self._shadow_cache
        batch: Dict[Tuple[int, int], None] = {}
        for a, b in pairs:
            key = (a, b) if a <= b else (b, a)
            if key not in cache:
                batch[key] = None
                if len(batch) == _SHADOW_BATCH:
                    self._seed_shadowing(list(batch))
                    batch.clear()
        if batch:
            self._seed_shadowing(list(batch))

    def _seed_shadowing(self, keys: List[Tuple[int, int]]) -> None:
        """Memoize the shadowing draw of each link in ``keys``."""
        sigma, cache, rng = self.shadowing_sigma_db, self._shadow_cache, self._shadow_rng
        seeds = [derive_seed(self.seed, "shadow", str(a), str(b)) for a, b in keys]
        stream = {"state": 0, "inc": 1}
        seat = {"bit_generator": "PCG64", "state": stream, "has_uint32": 0, "uinteger": 0}
        for key, (state, inc) in zip(keys, pcg64_seed_states(seeds)):
            stream["state"], stream["inc"] = state, inc
            rng.bit_generator.state = seat
            cache[key] = float(rng.normal(0.0, sigma))

    def interference_mw(self, at: Point) -> float:
        """Aggregate jammer interference power at a receiver position."""
        return sum(j.interference_mw(self, at) for j in self.jammers)

    # ---------------------------------------------------------------- delivery

    def delivery_probability(
        self,
        tx_power_dbm: float,
        tx_pos: Point,
        rx_pos: Point,
        tx_id: int = -1,
        rx_id: int = -1,
        *,
        extra_interference_mw: float = 0.0,
    ) -> float:
        """Probability a single transmission is decoded at the receiver.

        The batch of one: :meth:`delivery_probability_batch` is the only
        implementation of the chain.  It is reached through the class, so a
        proxy installed on the instance (``benchmarks/ledger`` times both
        names) counts one channel call here, not two.
        """
        return Channel.delivery_probability_batch(
            self,
            tx_power_dbm,
            tx_pos,
            (rx_pos,),
            (rx_id,),
            tx_id,
            extra_interference_mw=extra_interference_mw,
        )[0]

    # ------------------------------------------------------------- batch API

    def delivery_probability_batch(
        self,
        tx_power_dbm: float,
        tx_pos: Point,
        rx_pos: Sequence[Point],
        rx_ids: Sequence[int],
        tx_id: int = -1,
        *,
        extra_interference_mw: float = 0.0,
    ) -> List[float]:
        """``delivery_probability`` for every receiver of one transmission.

        One pass per receiver: distance, path loss, shadowing (none for a
        negative id), SINR over noise + jamming + ``extra_interference_mw``,
        and the logistic in SINR around the threshold, clamped so ``exp``
        cannot overflow.  The path-loss and shadowing memos are read in
        place; only a miss takes :meth:`path_loss_db` / :meth:`shadowing_db`'s
        frame.  With no jammer the noise+extra denominator is one constant
        for the batch.
        """
        hypot = math.hypot
        exp = math.exp
        pl_get = self._pl_cache.get
        path_loss = self.path_loss_db
        sh_get = self._shadow_cache.get
        shadowing = self.shadowing_db
        shadowed = tx_id >= 0 and self.shadowing_sigma_db > 0
        tx_x, tx_y = tx_pos.x, tx_pos.y
        noise_mw = self._noise_mw
        jammed = bool(self.jammers)
        denom_db = 0.0 if jammed else _mw_to_dbm(noise_mw + extra_interference_mw)
        interference = self.interference_mw
        softness = max(self.sinr_softness_db, 1e-6)
        threshold = self.sinr_threshold_db
        out = []
        append = out.append
        for pos, rid in zip(rx_pos, rx_ids):
            d = hypot(tx_x - pos.x, tx_y - pos.y)
            loss = pl_get(d)
            if loss is None:
                loss = path_loss(d)
            power = tx_power_dbm - loss
            if shadowed and rid >= 0:
                shadow = sh_get((tx_id, rid) if tx_id <= rid else (rid, tx_id))
                if shadow is None:
                    shadow = shadowing(tx_id, rid)
                power += shadow
            if jammed:
                sinr = power - _mw_to_dbm(noise_mw + interference(pos) + extra_interference_mw)
            else:
                sinr = power - denom_db
            z = (sinr - threshold) / softness
            z = min(max(z, -40.0), 40.0)
            append(1.0 / (1.0 + exp(-z)))
        return out

    def delivery_verdicts(
        self,
        probs: Sequence[float],
        draws: Sequence[float],
        *,
        survival: float = 1.0,
    ) -> List[bool]:
        """Decode success verdicts from precomputed probabilities and draws.

        ``draws[i]`` is the uniform consumed for receiver ``i`` — either a
        batched ``Generator.random(n)`` slab or KeyedHopRng addressed
        draws; either way the verdict is a pure function of the draw, so
        batching never perturbs it.  Receiver ``i`` decodes iff
        ``draws[i] < probs[i] * survival`` — the same float multiply and
        compare as the scalar dispatcher, evaluated through numpy when the
        batch is large enough (elementwise ``*`` and ``<`` on float64 are
        IEEE-exact, so both widths agree bitwise).
        """
        if len(probs) >= _NP_VERDICT_MIN:
            p = np.asarray(probs, dtype=np.float64)
            if survival != 1.0:
                p = p * survival
            return (np.asarray(draws, dtype=np.float64) < p).tolist()
        if survival != 1.0:
            return [d < p * survival for p, d in zip(probs, draws)]
        return [d < p for p, d in zip(probs, draws)]

    def comm_range_m(self, tx_power_dbm: float, margin_db: float = 0.0) -> float:
        """Distance at which mean SINR (no jamming) equals the threshold.

        Used to size neighbor-search grids; actual delivery is probabilistic.
        """
        budget_db = (
            tx_power_dbm
            - self.noise_floor_dbm
            - self.sinr_threshold_db
            - self.reference_loss_db
            - margin_db
        )
        if budget_db <= 0:
            return self.reference_distance_m
        return self.reference_distance_m * 10.0 ** (budget_db / (10.0 * self.path_loss_exponent))

    # ----------------------------------------------------------------- jamming

    def jam_signature(self) -> Tuple:
        """A hashable token that changes whenever jamming state changes.

        Covers the jammer roster (``_jam_epoch`` bumps on add/clear) *and*
        in-place toggles — attack scenarios flip ``Jammer.active`` and
        retune ``power_dbm`` directly, bypassing the channel.  Anything
        cached from jammer-dependent math (e.g. the stack's pair-probability
        cache) must key on this.  Costs one empty tuple when undisturbed.
        """
        jammers = self.jammers
        if not jammers:
            return (self._jam_epoch, ())
        return (
            self._jam_epoch,
            tuple((j.active, j.power_dbm) for j in jammers),
        )

    def add_jammer(self, jammer: Jammer) -> Jammer:
        self.jammers.append(jammer)
        self._jam_epoch += 1
        return jammer

    def clear_jammers(self) -> None:
        self.jammers.clear()
        self._jam_epoch += 1

    def __repr__(self) -> str:
        return (
            f"Channel(n={self.path_loss_exponent}, "
            f"sigma={self.shadowing_sigma_db}dB, jammers={len(self.jammers)})"
        )


# Registry hookup: the default propagation model, addressable by name in
# stack compositions (StackSpec.channel="log_distance").
from repro.net.registry import register  # noqa: E402  (registration epilogue)

Channel.name = "log_distance"
register("channel", Channel.name, Channel)
