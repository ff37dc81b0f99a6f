"""Battery / energy model.

Forward-deployed IoBT assets are energy-disadvantaged; every radio bit,
sensor reading, and idle second drains a finite budget.  The battery
invokes a callback at depletion so the network can take the node down.
"""

from __future__ import annotations

from typing import Callable, Optional

from repro.errors import ConfigurationError

__all__ = ["Battery"]


class Battery:
    """A finite energy budget with per-operation drain coefficients.

    Defaults are loosely calibrated to low-power radio hardware
    (~200 nJ/bit transmit, ~100 nJ/bit receive) — the absolute values only
    matter relative to each other and to the capacity.
    """

    def __init__(
        self,
        capacity_j: float,
        *,
        tx_j_per_bit: float = 2.0e-7,
        rx_j_per_bit: float = 1.0e-7,
        sense_j_per_sample: float = 5.0e-4,
        idle_w: float = 0.0,
        on_depleted: Optional[Callable[[], None]] = None,
    ):
        if capacity_j <= 0:
            raise ConfigurationError("capacity_j must be positive")
        self.capacity_j = capacity_j
        self.remaining_j = capacity_j
        self.tx_j_per_bit = tx_j_per_bit
        self.rx_j_per_bit = rx_j_per_bit
        self.sense_j_per_sample = sense_j_per_sample
        self.idle_w = idle_w
        self.on_depleted = on_depleted
        self._depleted_notified = False

    @property
    def depleted(self) -> bool:
        return self.remaining_j <= 0.0

    @property
    def fraction_remaining(self) -> float:
        return max(0.0, self.remaining_j) / self.capacity_j

    def _drain(self, joules: float) -> None:
        if joules <= 0 or self.depleted:
            return
        self.remaining_j -= joules
        if self.remaining_j <= 0.0 and not self._depleted_notified:
            self._depleted_notified = True
            self.remaining_j = 0.0
            if self.on_depleted is not None:
                self.on_depleted()

    def drain_radio(self, bits_tx: float, bits_rx: float) -> None:
        self._drain(bits_tx * self.tx_j_per_bit + bits_rx * self.rx_j_per_bit)

    def drain_sense(self, samples: int = 1) -> None:
        self._drain(samples * self.sense_j_per_sample)

    def drain_idle(self, dt_s: float) -> None:
        self._drain(self.idle_w * dt_s)

    def consumed_j(self) -> float:
        return self.capacity_j - max(0.0, self.remaining_j)

    def __repr__(self) -> str:
        return (
            f"Battery({self.remaining_j:.1f}/{self.capacity_j:.1f} J, "
            f"{self.fraction_remaining:.0%})"
        )
