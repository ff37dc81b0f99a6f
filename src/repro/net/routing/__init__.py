"""Routing and dissemination protocols.

All protocols implement the :class:`Router` interface: they are attached to
a set of nodes, originate packets with :meth:`Router.send`, and receive
every packet the network delivers to an attached node.  Delivery to the
application goes through ``node.deliver_local``.

Protocols:

* :class:`~repro.net.routing.flooding.FloodingRouter` — duplicate-suppressed
  blind flooding (the dissemination baseline).
* :class:`~repro.net.routing.greedy_geo.GreedyGeoRouter` — greedy geographic
  forwarding with a location service.
* :class:`~repro.net.routing.aodv.AodvRouter` — on-demand distance-vector
  route discovery with caching.
* :class:`~repro.net.routing.dtn.EpidemicRouter` /
  :class:`~repro.net.routing.dtn.SprayAndWaitRouter` — store-carry-forward
  for partitioned (DTN) regimes.
"""

from repro.net.routing.base import Router
from repro.net.routing.flooding import FloodingRouter
from repro.net.routing.greedy_geo import GreedyGeoRouter
from repro.net.routing.aodv import AodvRouter
from repro.net.routing.dtn import EpidemicRouter, SprayAndWaitRouter

__all__ = [
    "Router",
    "FloodingRouter",
    "GreedyGeoRouter",
    "AodvRouter",
    "EpidemicRouter",
    "SprayAndWaitRouter",
]
