"""Wireless propagation: log-distance path loss, shadowing, fading, jamming.

The model is standard: received power (dBm) is transmit power minus a
log-distance path loss, plus a per-link lognormal shadowing term and a
per-transmission fast-fading term.  Delivery succeeds with a probability
that is a smooth (logistic) function of SINR, where interference includes
active jammers.  This is the classic abstraction used by packet-level MANET
simulators; it reproduces the qualitative effects the paper's arguments rely
on (range limits, partitions, jamming-induced loss).

Hot-path notes
--------------
Propagation parameters are construction-time constants, which makes the
expensive scalar cores memoizable:

* :meth:`Channel.shadowing_db` is static per link, so the draw is cached per
  node pair.  A miss constructs the link's seeded generator (11 of its 15 us);
  a whole-world pass calls :meth:`Channel.prime_shadowing` first, which does
  the seeding of all its links at once and seats one reused generator on
  each link's stream for the same draw, bit for bit.
* :meth:`Channel.path_loss_db` caches per distinct distance (static worlds
  repeat the same distances forever; the cache is size-capped so mobile
  worlds cannot grow it without bound).
* :meth:`Channel.comm_range_m` caches per ``(tx_power_dbm, margin_db)``.

None of the three depends on jamming, so a jammer edit drops none of them;
every jammer-dependent result carries the :meth:`jam_signature` of the
moment it was computed — attack scenarios flip ``Jammer.active`` in place,
which must never serve stale interference from a cache.

The batch API (:meth:`rx_power_dbm_batch` / :meth:`sinr_db_batch` /
:meth:`delivery_verdicts`) evaluates all receivers of one transmission in a
single fused pass over those memoized cores.  Transcendentals
(``log10``/``exp``) deliberately stay on scalar ``math.*``: numpy's SIMD
loops are *not* bit-identical to libm on all hardware, and the PR5 golden
fingerprints pin exact trace bytes.  numpy is used only where it is
IEEE-exact — elementwise multiply and compare of the final verdicts — so a
wide batch through numpy and a narrow one through the list comprehension
return the same bits.
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
    """Log-distance path-loss channel with shadowing, fading and jamming.

    Parameters
    ----------
    path_loss_exponent:
        2.0 for free space, ~3.0 for urban outdoor (default), 4+ indoors.
    shadowing_sigma_db:
        Std-dev of the per-link lognormal shadowing term.  Shadowing is
        *static per link* (deterministic from the seed and the node pair),
        matching the physical interpretation of obstacles.
    fading_sigma_db:
        Std-dev of the per-transmission fast-fading term.
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
        self._fading_rng = np.random.default_rng(derive_seed(seed, "fading"))
        # The one generator prime_shadowing re-seats on each link's stream.
        self._shadow_rng = np.random.Generator(np.random.PCG64(0))
        # Memo caches (see module docstring).  Bumping _jam_epoch is how
        # add/clear_jammers invalidates anything keyed on a jam signature.
        self._shadow_cache: Dict[Tuple[int, int], float] = {}
        self._pl_cache: Dict[float, float] = {}
        self._range_cache: Dict[Tuple[float, float], float] = {}
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
        """Fill the shadowing memo for every pair it lacks, in one batch.

        Each link keeps its ``derive_seed`` stream and ``normal(0.0, sigma)``
        draw, so :meth:`shadowing_db` returns the same bits either way; saved
        is a generator per link (:func:`~repro.util.rng.pcg64_seed_states`).
        """
        sigma, cache, rng = self.shadowing_sigma_db, self._shadow_cache, self._shadow_rng
        canonical = dict.fromkeys((a, b) if a <= b else (b, a) for a, b in pairs)
        keys = [key for key in canonical if key not in cache]
        if sigma <= 0 or not keys:
            return
        seeds = [derive_seed(self.seed, "shadow", str(a), str(b)) for a, b in keys]
        stream = {"state": 0, "inc": 1}
        seat = {"bit_generator": "PCG64", "state": stream, "has_uint32": 0, "uinteger": 0}
        for key, (state, inc) in zip(keys, pcg64_seed_states(seeds)):
            stream["state"], stream["inc"] = state, inc
            rng.bit_generator.state = seat
            cache[key] = float(rng.normal(0.0, sigma))

    def rx_power_dbm(
        self,
        tx_power_dbm: float,
        tx_pos: Point,
        rx_pos: Point,
        tx_id: int = -1,
        rx_id: int = -1,
        *,
        with_fading: bool = True,
    ) -> float:
        """Mean received power plus shadowing (and fading if requested)."""
        power = tx_power_dbm - self.path_loss_db(distance(tx_pos, rx_pos))
        if tx_id >= 0 and rx_id >= 0:
            power += self.shadowing_db(tx_id, rx_id)
        if with_fading and self.fading_sigma_db > 0:
            power += float(self._fading_rng.normal(0.0, self.fading_sigma_db))
        return power

    def interference_mw(self, at: Point) -> float:
        """Aggregate jammer interference power at a receiver position."""
        return sum(j.interference_mw(self, at) for j in self.jammers)

    def sinr_db(
        self,
        tx_power_dbm: float,
        tx_pos: Point,
        rx_pos: Point,
        tx_id: int = -1,
        rx_id: int = -1,
        *,
        with_fading: bool = True,
        extra_interference_mw: float = 0.0,
    ) -> float:
        rx_dbm = self.rx_power_dbm(
            tx_power_dbm, tx_pos, rx_pos, tx_id, rx_id, with_fading=with_fading
        )
        denom_mw = (
            self._noise_mw + self.interference_mw(rx_pos) + extra_interference_mw
        )
        return rx_dbm - _mw_to_dbm(denom_mw)

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

        Logistic in SINR around the threshold; evaluated *without* fast
        fading (fading is what the logistic smoothing stands in for).
        """
        sinr = self.sinr_db(
            tx_power_dbm,
            tx_pos,
            rx_pos,
            tx_id,
            rx_id,
            with_fading=False,
            extra_interference_mw=extra_interference_mw,
        )
        z = (sinr - self.sinr_threshold_db) / max(self.sinr_softness_db, 1e-6)
        # Clamp to avoid overflow in exp for extreme SINR values.
        z = min(max(z, -40.0), 40.0)
        return 1.0 / (1.0 + math.exp(-z))

    # ------------------------------------------------------------- batch API

    def rx_power_dbm_batch(
        self,
        tx_power_dbm: float,
        tx_pos: Point,
        rx_pos: Sequence[Point],
        rx_ids: Sequence[int],
        tx_id: int = -1,
        *,
        with_fading: bool = False,
    ) -> List[float]:
        """Received power for every receiver of one transmission.

        Semantically ``[rx_power_dbm(…, p, tx_id, i) for p, i in
        zip(rx_pos, rx_ids)]`` — bit-identical to the scalar loop, fused
        over the path-loss and shadowing memos.  Fading (when requested)
        draws sequentially in receiver order, matching the scalar path.
        """
        pl = self.path_loss_db
        sh = self.shadowing_db
        shadowed = tx_id >= 0
        out = []
        append = out.append
        for pos, rid in zip(rx_pos, rx_ids):
            power = tx_power_dbm - pl(distance(tx_pos, pos))
            if shadowed and rid >= 0:
                power += sh(tx_id, rid)
            append(power)
        if with_fading and self.fading_sigma_db > 0:
            normal = self._fading_rng.normal
            sigma = self.fading_sigma_db
            out = [p + float(normal(0.0, sigma)) for p in out]
        return out

    def sinr_db_batch(
        self,
        tx_power_dbm: float,
        tx_pos: Point,
        rx_pos: Sequence[Point],
        rx_ids: Sequence[int],
        tx_id: int = -1,
        *,
        with_fading: bool = False,
        extra_interference_mw: float = 0.0,
    ) -> List[float]:
        """SINR (dB) for every receiver of one transmission.

        Matches ``sinr_db`` bit-for-bit.  With no jammers the noise+extra
        denominator is constant across the batch and converted to dBm once.
        """
        powers = self.rx_power_dbm_batch(
            tx_power_dbm, tx_pos, rx_pos, rx_ids, tx_id, with_fading=with_fading
        )
        if not self.jammers:
            denom_db = _mw_to_dbm(self._noise_mw + extra_interference_mw)
            return [p - denom_db for p in powers]
        interference = self.interference_mw
        base = self._noise_mw + extra_interference_mw
        return [
            p - _mw_to_dbm(base + interference(pos))
            for p, pos in zip(powers, rx_pos)
        ]

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
        """``delivery_probability`` for every receiver, fused and memoized."""
        sinrs = self.sinr_db_batch(
            tx_power_dbm,
            tx_pos,
            rx_pos,
            rx_ids,
            tx_id,
            with_fading=False,
            extra_interference_mw=extra_interference_mw,
        )
        softness = max(self.sinr_softness_db, 1e-6)
        threshold = self.sinr_threshold_db
        exp = math.exp
        out = []
        append = out.append
        for sinr in sinrs:
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
        key = (tx_power_dbm, margin_db)
        cached = self._range_cache.get(key)
        if cached is not None:
            return cached
        budget_db = (
            tx_power_dbm
            - self.noise_floor_dbm
            - self.sinr_threshold_db
            - self.reference_loss_db
            - margin_db
        )
        if budget_db <= 0:
            value = self.reference_distance_m
        else:
            value = self.reference_distance_m * 10.0 ** (
                budget_db / (10.0 * self.path_loss_exponent)
            )
        self._range_cache[key] = value
        return value

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
