"""String-keyed component registry for stack composition.

The Fig. 2 synthesis story — assemble heterogeneous communication stacks on
demand — needs components addressable *by name*, so scenario builders and
campaign sweeps can grid over stack compositions declaratively
(``router="aodv"``, ``mac="csma"``) instead of importing classes.  This
module provides:

* :class:`ComponentRegistry` — ``kind -> name -> factory`` tables with a
  module-level default instance.  Component modules self-register at import
  (``register("mac", "csma", ContentionMac)``); lookups lazily import the
  default component modules, so ``create("router", "aodv", net)`` works
  without any prior import ceremony.
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

from dataclasses import dataclass, field, replace
from typing import TYPE_CHECKING, Any, Callable, Dict, Iterable, List, Optional, Tuple

from repro.errors import ConfigurationError

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.net.node import Network
    from repro.net.stack import RouterPort, TransportPort
    from repro.sim.kernel import Simulator

__all__ = [
    "ComponentRegistry",
    "StackSpec",
    "ComposedStack",
    "register",
    "create",
    "names",
    "kinds",
    "compose",
    "DEFAULT_REGISTRY",
]

Factory = Callable[..., Any]

#: The component kinds a stack composition draws from.
KINDS: Tuple[str, ...] = ("channel", "mac", "router", "mobility", "transport")


class ComponentRegistry:
    """``kind -> name -> factory`` tables with validation.

    A *factory* is any callable returning a component instance; classes
    register directly.  Names are unique per kind; re-registering a name
    with a different factory raises (idempotent re-registration of the same
    factory is allowed so module reloads stay safe).
    """

    def __init__(self) -> None:
        self._tables: Dict[str, Dict[str, Factory]] = {kind: {} for kind in KINDS}

    # ----------------------------------------------------------- registration

    def register(self, kind: str, name: str, factory: Optional[Factory] = None):
        """Register ``factory`` under ``(kind, name)``.

        Usable directly (``register("mac", "csma", ContentionMac)``) or as
        a class decorator (``@register("router", "aodv")``).
        """
        table = self._table(kind)
        if not name or name != name.lower() or " " in name or "-" in name:
            raise ConfigurationError(
                f"component names are lowercase snake_case, got {name!r}"
            )

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

    # ---------------------------------------------------------------- lookup

    def create(self, kind: str, name: str, *args: Any, **kwargs: Any) -> Any:
        """Instantiate the component registered under ``(kind, name)``."""
        return self.factory(kind, name)(*args, **kwargs)

    def factory(self, kind: str, name: str) -> Factory:
        table = self._table(kind)
        if name not in table:
            _load_default_components()
            table = self._table(kind)
        try:
            return table[name]
        except KeyError:
            known = ", ".join(sorted(table)) or "<none>"
            raise ConfigurationError(
                f"unknown {kind} component {name!r} (registered: {known})"
            ) from None

    def names(self, kind: str) -> List[str]:
        """Registered names for ``kind``, sorted."""
        _load_default_components()
        return sorted(self._table(kind))

    def kinds(self) -> List[str]:
        return list(KINDS)

    def _table(self, kind: str) -> Dict[str, Factory]:
        try:
            return self._tables[kind]
        except KeyError:
            raise ConfigurationError(
                f"unknown component kind {kind!r} (kinds: {', '.join(KINDS)})"
            ) from None

    def __repr__(self) -> str:
        counts = {k: len(t) for k, t in self._tables.items() if t}
        return f"ComponentRegistry({counts})"


#: The process-wide default registry component modules register into.
DEFAULT_REGISTRY = ComponentRegistry()

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
    import repro.net.mobility  # noqa: F401
    import repro.net.routing  # noqa: F401
    import repro.net.transport  # noqa: F401


def register(kind: str, name: str, factory: Optional[Factory] = None):
    """Register into the default registry (see :class:`ComponentRegistry`)."""
    return DEFAULT_REGISTRY.register(kind, name, factory)


def create(kind: str, name: str, *args: Any, **kwargs: Any) -> Any:
    """Instantiate from the default registry."""
    return DEFAULT_REGISTRY.create(kind, name, *args, **kwargs)


def names(kind: str) -> List[str]:
    """Registered names for ``kind`` in the default registry."""
    return DEFAULT_REGISTRY.names(kind)


def kinds() -> List[str]:
    return DEFAULT_REGISTRY.kinds()


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

    def as_config(self) -> Dict[str, Any]:
        """The canonical dict view fed to hashing / serialization."""
        return {
            "router": self.router,
            "mac": self.mac,
            "channel": self.channel,
            "transport": self.transport,
            "router_params": dict(self.router_params),
            "mac_params": dict(self.mac_params),
            "channel_params": dict(self.channel_params),
            "transport_params": dict(self.transport_params),
        }

    def with_(self, **changes: Any) -> "StackSpec":
        """A copy with the given fields replaced."""
        return replace(self, **changes)

    @classmethod
    def from_config(cls, config: Dict[str, Any]) -> "StackSpec":
        """Inverse of :meth:`as_config` (campaign params round-trip)."""
        return cls(
            router=config.get("router", "flooding"),
            mac=config.get("mac", "csma"),
            channel=config.get("channel"),
            transport=config.get("transport"),
            router_params=dict(config.get("router_params", {})),
            mac_params=dict(config.get("mac_params", {})),
            channel_params=dict(config.get("channel_params", {})),
            transport_params=dict(config.get("transport_params", {})),
        )


@dataclass
class ComposedStack:
    """A live stack assembled from a :class:`StackSpec`."""

    spec: StackSpec
    network: "Network"
    router: "RouterPort"
    transport: Optional["TransportPort"] = None

    def attach_all(self, node_ids: Iterable[int]) -> None:
        """Attach nodes to the whole composition.

        Transports install their packet handlers per attached node, so when
        one is present attachment must flow through it — attaching on the
        router directly would leave the transport deaf on those nodes.
        """
        if self.transport is not None:
            for node_id in node_ids:
                self.transport.attach(node_id)
        else:
            self.router.attach_all(node_ids)


def compose(
    sim: "Simulator",
    spec: StackSpec,
    *,
    network: Optional["Network"] = None,
    attach: Optional[Iterable[int]] = None,
    registry: Optional[ComponentRegistry] = None,
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
    reg = registry if registry is not None else DEFAULT_REGISTRY

    from repro.net.node import Network

    if network is None:
        channel = None
        if spec.channel is not None:
            params = dict(spec.channel_params)
            params.setdefault("seed", sim.rng.seed)
            channel = reg.create("channel", spec.channel, **params)
        mac = reg.create("mac", spec.mac, **spec.mac_params)
        network = Network(sim, channel, mac)
    router = reg.create("router", spec.router, network, **spec.router_params)
    if attach is not None:
        router.attach_all(attach)
    transport = None
    if spec.transport is not None:
        transport = reg.create(
            "transport", spec.transport, router, **spec.transport_params
        )
    return ComposedStack(spec=spec, network=network, router=router, transport=transport)
