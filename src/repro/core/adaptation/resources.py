"""Dynamic rate allocation for communication.

§IV-B requires allocators that reallocate heterogeneous resources as
conditions change and scale with spatio-temporally varying workloads.

* :class:`AdaptiveRateController` — an integral controller adjusting a
  source's offered rate to hold queueing delay at a setpoint.
* :class:`CoordinatedRateControllers` — the E7 contrast: several such
  controllers sharing one resource either observe *total* delay and split a
  negotiated budget (coordinated) or each chase the shared delay signal
  independently (uncoordinated), which is the oscillation pathology of the
  paper's citation [12].
"""

from __future__ import annotations

from typing import Dict, List, Sequence, Tuple

import numpy as np

from repro.errors import AdaptationError

__all__ = [
    "AdaptiveRateController",
    "CoordinatedRateControllers",
]


class AdaptiveRateController:
    """Integral controller holding observed delay at a setpoint.

    ``update(observed_delay)`` adjusts the offered rate multiplicatively:
    above-setpoint delay cuts the rate, below-setpoint delay grows it.
    ``gain`` controls aggressiveness — the uncoordinated-interaction
    pathology needs realistically aggressive controllers.
    """

    def __init__(
        self,
        *,
        setpoint_s: float = 1.0,
        rate: float = 1.0,
        gain: float = 0.5,
        rate_bounds: Tuple[float, float] = (0.05, 100.0),
    ):
        if setpoint_s <= 0:
            raise AdaptationError("setpoint must be positive")
        self.setpoint_s = setpoint_s
        self.rate = rate
        self.gain = gain
        self.rate_bounds = rate_bounds
        self.history: List[Tuple[float, float]] = []  # (observed, new rate)

    def update(self, observed_delay_s: float) -> float:
        """Adjust and return the new offered rate."""
        # Multiplicative integral action on the relative error.
        error = (self.setpoint_s - observed_delay_s) / self.setpoint_s
        factor = 1.0 + self.gain * error
        factor = max(0.1, min(10.0, factor))
        lo, hi = self.rate_bounds
        self.rate = max(lo, min(hi, self.rate * factor))
        self.history.append((observed_delay_s, self.rate))
        return self.rate

    def oscillation_index(self) -> float:
        """Mean absolute relative rate change over the run (0 = smooth)."""
        if len(self.history) < 2:
            return 0.0
        rates = [r for _d, r in self.history]
        changes = [
            abs(b - a) / max(a, 1e-9) for a, b in zip(rates, rates[1:])
        ]
        return float(np.mean(changes))


class CoordinatedRateControllers:
    """N rate controllers sharing one bottleneck, with/without coordination.

    The shared resource is an M/D/1-ish bottleneck: delay grows as
    ``service_time / (1 - rho)`` for total utilization rho < 1 (and blows
    up beyond).  Uncoordinated mode: every controller reacts to the same
    shared delay at full gain — their corrections compound, overshooting in
    both directions.  Coordinated mode: controllers share the correction,
    each applying 1/N of it, which restores the aggregate loop gain the
    setpoint math assumed.
    """

    def __init__(
        self,
        controllers: Sequence[AdaptiveRateController],
        *,
        capacity: float = 10.0,
        service_time_s: float = 0.1,
        coordinated: bool = True,
    ):
        if not controllers:
            raise AdaptationError("need at least one controller")
        self.controllers = list(controllers)
        self.capacity = capacity
        self.service_time_s = service_time_s
        self.coordinated = coordinated
        self.delay_trace: List[float] = []

    def shared_delay(self) -> float:
        rho = sum(c.rate for c in self.controllers) / self.capacity
        if rho >= 0.999:
            return self.service_time_s * 1000.0  # saturated
        return self.service_time_s / (1.0 - rho)

    def step(self) -> float:
        """One control epoch; returns the post-adjustment shared delay."""
        delay = self.shared_delay()
        self.delay_trace.append(delay)
        n = len(self.controllers)
        for controller in self.controllers:
            if self.coordinated:
                # Share the correction: damp each controller's gain by N.
                original_gain = controller.gain
                controller.gain = original_gain / n
                controller.update(delay)
                controller.gain = original_gain
            else:
                controller.update(delay)
        return self.shared_delay()

    def run(self, epochs: int) -> Dict[str, float]:
        for _i in range(epochs):
            self.step()
        # Judge behavior on the latter half (after transients).
        tail = self.delay_trace[len(self.delay_trace) // 2:]
        setpoint = self.controllers[0].setpoint_s
        rmse = float(
            np.sqrt(np.mean([(d - setpoint) ** 2 for d in tail]))
        )
        return {
            "delay_rmse": rmse,
            "mean_delay": float(np.mean(tail)),
            "oscillation": float(
                np.mean([c.oscillation_index() for c in self.controllers])
            ),
        }
