"""String-keyed component tables for stack composition.

The Fig. 2 synthesis story — assemble heterogeneous communication stacks on
demand — needs components addressable *by name*, so scenario builders and
campaign sweeps can grid over stack compositions declaratively
(``router="aodv"``, ``mac="csma"``) instead of importing classes.  This
module provides:

* ``kind -> name -> factory`` tables behind :func:`register`,
  :func:`factory` and :func:`create`.  Component modules self-register at
  import (``register("mac", "csma", ContentionMac)``); lookups lazily
  import the default component modules, so ``create("router", "aodv",
  net)`` works without any prior import ceremony.
* :class:`StackSpec` — a declarative, JSON-able description of one stack
  composition (channel / MAC / router / transport names plus per-component
  params).  ``repro.scenarios.builder`` consumes it to build scenarios and
  ``repro.campaign.spec`` hashes it into content-addressed cache keys, so
  cached results invalidate whenever the composition changes.
* :func:`compose` — build a live ``(network, router, transport)`` triple
  from a :class:`StackSpec`, filling the stack's routing/transport slots.

Naming rules (documented in DESIGN.md §3.5): names are lowercase
``snake_case``, match the component's canonical short name (a router's
``Router.name``), and never encode parameters — parameters ride in the
spec's ``*_params`` maps.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any, Callable, Dict, Iterable, Optional, Tuple

from repro.errors import ConfigurationError

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.net.node import Network
    from repro.net.stack import RouterPort, TransportPort
    from repro.sim.kernel import Simulator

__all__ = [
    "StackSpec",
    "ComposedStack",
    "register",
    "factory",
    "create",
    "compose",
]

Factory = Callable[..., Any]

#: The component kinds a stack composition draws from.
KINDS: Tuple[str, ...] = ("channel", "mac", "router", "transport")

#: ``kind -> name -> factory``.  Names are unique per kind.
_TABLES: Dict[str, Dict[str, Factory]] = {kind: {} for kind in KINDS}

_defaults_loaded = False


def _load_default_components() -> None:
    """Import the built-in component modules (they self-register)."""
    global _defaults_loaded
    if _defaults_loaded:
        return
    _defaults_loaded = True
    # Imported lazily to avoid import cycles (these modules import us for
    # their `register(...)` calls).
    import repro.net.channel  # noqa: F401
    import repro.net.mac  # noqa: F401
    import repro.net.routing  # noqa: F401
    import repro.net.transport  # noqa: F401


def _table(kind: str) -> Dict[str, Factory]:
    try:
        return _TABLES[kind]
    except KeyError:
        raise ConfigurationError(
            f"unknown component kind {kind!r} (kinds: {', '.join(KINDS)})"
        ) from None


def register(kind: str, name: str, factory: Optional[Factory] = None):
    """Register ``factory`` under ``(kind, name)``.

    A *factory* is any callable returning a component instance; classes
    register directly.  Usable directly (``register("mac", "csma",
    ContentionMac)``) or as a class decorator (``@register("router",
    "aodv")``).  Re-registering a name with a different factory raises;
    re-registering the same factory is allowed so module reloads stay safe.
    """
    table = _table(kind)
    if not name or name != name.lower() or " " in name or "-" in name:
        raise ConfigurationError(f"component names are lowercase snake_case, got {name!r}")

    def _do(fac: Factory) -> Factory:
        existing = table.get(name)
        if existing is not None and existing is not fac:
            raise ConfigurationError(
                f"{kind} component {name!r} already registered "
                f"({existing!r}); names are unique per kind"
            )
        table[name] = fac
        return fac

    if factory is None:
        return _do
    return _do(factory)


def factory(kind: str, name: str) -> Factory:
    """The factory registered under ``(kind, name)``."""
    table = _table(kind)
    if name not in table:
        _load_default_components()
    try:
        return table[name]
    except KeyError:
        known = ", ".join(sorted(table)) or "<none>"
        raise ConfigurationError(
            f"unknown {kind} component {name!r} (registered: {known})"
        ) from None


def create(kind: str, name: str, *args: Any, **kwargs: Any) -> Any:
    """Instantiate the component registered under ``(kind, name)``."""
    return factory(kind, name)(*args, **kwargs)


# ------------------------------------------------------------------- specs


@dataclass(frozen=True)
class StackSpec:
    """A declarative stack composition, addressable entirely by name.

    JSON-able by construction (names + flat param dicts), so campaign
    sweeps can grid over compositions and
    :func:`repro.campaign.spec.config_key` can hash them into cache keys.
    ``channel=None`` means "use the scenario's own channel" (e.g. the urban
    grid's calibrated channel) rather than a registry-built one.
    """

    router: str = "flooding"
    mac: str = "csma"
    channel: Optional[str] = None
    transport: Optional[str] = None
    router_params: Dict[str, Any] = field(default_factory=dict)
    mac_params: Dict[str, Any] = field(default_factory=dict)
    channel_params: Dict[str, Any] = field(default_factory=dict)
    transport_params: Dict[str, Any] = field(default_factory=dict)

    def __post_init__(self) -> None:
        for label, value in (
            ("router_params", self.router_params),
            ("mac_params", self.mac_params),
            ("channel_params", self.channel_params),
            ("transport_params", self.transport_params),
        ):
            if not isinstance(value, dict):
                raise ConfigurationError(f"{label} must be a dict, got {value!r}")


@dataclass
class ComposedStack:
    """A live stack assembled from a :class:`StackSpec`."""

    spec: StackSpec
    network: "Network"
    router: "RouterPort"
    transport: Optional["TransportPort"] = None


def compose(
    sim: "Simulator",
    spec: StackSpec,
    *,
    network: Optional["Network"] = None,
    attach: Optional[Iterable[int]] = None,
) -> ComposedStack:
    """Build a live network stack from ``spec``.

    With ``network=None`` a fresh :class:`~repro.net.node.Network` is built
    around the spec's channel and MAC; passing an existing network instead
    plugs the router/transport into it (the builder does this so its world
    geometry owns the channel).

    ``attach`` names the node ids the router serves.  Transports install
    their packet handlers on the router's attached nodes at construction,
    so attachment must precede transport creation — this function owns
    that ordering.
    """
    from repro.net.node import Network

    if network is None:
        channel = None
        if spec.channel is not None:
            params = dict(spec.channel_params)
            params.setdefault("seed", sim.rng.seed)
            channel = create("channel", spec.channel, **params)
        mac = create("mac", spec.mac, **spec.mac_params)
        network = Network(sim, channel, mac)
    router = create("router", spec.router, network, **spec.router_params)
    if attach is not None:
        router.attach_all(attach)
    transport = None
    if spec.transport is not None:
        transport = create(
            "transport", spec.transport, router, **spec.transport_params
        )
    return ComposedStack(spec=spec, network=network, router=router, transport=transport)
