"""Challenge 2 — Adaptive reflexes for IoBTs.

* :mod:`repro.core.adaptation.selfaware` — the unified self-aware
  adaptation abstraction (state / goal / model / actions) instantiated for
  the three disciplines the paper names (self-stabilization, error
  correction, adaptive control).
* :mod:`repro.core.adaptation.stabilizer` — self-stabilizing spanning-tree
  and leader-election protocols over the live network.
* :mod:`repro.core.adaptation.games` — game-theoretic decomposition of
  global goals into agent objectives with best-response convergence.
* :mod:`repro.core.adaptation.knobs` — the adaptation-knob registry tied to
  initiative envelopes.
* :mod:`repro.core.adaptation.perception` — sensing-modality switching.
* :mod:`repro.core.adaptation.resources` — dynamic compute/bandwidth
  reallocation with saturation protection; coordinated vs uncoordinated
  adaptive controllers.
* :mod:`repro.core.adaptation.controllers` — diverse vs homogeneous
  controller teams.
"""

from repro.core.adaptation.selfaware import (
    SelfModel,
    SelfAwareAgent,
    InvariantMaintainer,
    SetpointController,
    CodewordCorrector,
)
from repro.core.adaptation.stabilizer import SpanningTreeProtocol, LeaderElection
from repro.core.adaptation.games import (
    TaskAssignmentGame,
    BestResponseDynamics,
    GameResult,
)
from repro.core.adaptation.knobs import AdaptationKnob, KnobRegistry
from repro.core.adaptation.perception import ModalityManager
from repro.core.adaptation.resources import (
    AdaptiveRateController,
    CoordinatedRateControllers,
)
from repro.core.adaptation.comms import TransportSwitcher
from repro.core.adaptation.controllers import (
    TrackingController,
    ControllerTeam,
    make_homogeneous_team,
    make_diverse_team,
)

__all__ = [
    "SelfModel",
    "SelfAwareAgent",
    "InvariantMaintainer",
    "SetpointController",
    "CodewordCorrector",
    "SpanningTreeProtocol",
    "LeaderElection",
    "TaskAssignmentGame",
    "BestResponseDynamics",
    "GameResult",
    "AdaptationKnob",
    "KnobRegistry",
    "ModalityManager",
    "AdaptiveRateController",
    "CoordinatedRateControllers",
    "TransportSwitcher",
    "TrackingController",
    "ControllerTeam",
    "make_homogeneous_team",
    "make_diverse_team",
]
