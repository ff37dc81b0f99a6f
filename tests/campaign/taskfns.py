"""Module-level task functions for campaign tests.

Worker processes reach task functions by pickling them *by reference*
(module + qualname), so every function the runner executes in a pool must
live at module level — hence this helper module rather than closures inside
the tests.
"""

from __future__ import annotations

import os
import time
from pathlib import Path
from typing import Any, Dict

import numpy as np


def affine_noise_task(params: Dict[str, Any], seed: int) -> Dict[str, Any]:
    """Deterministic function of (params, seed): value + seeded noise."""
    rng = np.random.default_rng(seed)
    noise = float(rng.normal())
    return {
        "value": params["gain"] * params["offset"] + noise,
        "noise": noise,
    }


def counting_task(params: Dict[str, Any], seed: int) -> Dict[str, Any]:
    """Like affine_noise_task, but leaves a per-execution marker file.

    Execution counting must survive process boundaries, so it is done on
    the filesystem: each *execution* (not cache hit) touches one file named
    by the task's identity in ``params["marker_dir"]``.
    """
    marker_dir = Path(params["marker_dir"])
    marker_dir.mkdir(parents=True, exist_ok=True)
    stamp = f"{params['gain']}-{params['offset']}-{seed}-{time.monotonic_ns()}"
    (marker_dir / f"{stamp}.ran").touch()
    rng = np.random.default_rng(seed)
    return {"value": params["gain"] * params["offset"] + float(rng.normal())}


def crash_once_task(params: Dict[str, Any], seed: int) -> Dict[str, Any]:
    """Hard-kills its worker process on first execution of the marked index.

    ``os._exit`` (not an exception) models a real worker death — segfault,
    OOM-kill — which surfaces to the runner as a broken process pool.  The
    marker file makes the crash one-shot so a retry succeeds.
    """
    if params["i"] == params.get("crash_i", -1):
        marker = Path(params["marker_dir"]) / f"crashed-{params['i']}"
        if not marker.exists():
            marker.write_bytes(b"x")
            os._exit(17)
    return {"value": float(params["i"])}


def flaky_exception_task(params: Dict[str, Any], seed: int) -> Dict[str, Any]:
    """Raises (cleanly) on first execution of the marked index."""
    if params["i"] == params.get("fail_i", -1):
        marker = Path(params["marker_dir"]) / f"raised-{params['i']}"
        if not marker.exists():
            marker.write_bytes(b"x")
            raise ValueError("transient task failure")
    return {"value": float(params["i"])}


def always_raises_task(params: Dict[str, Any], seed: int) -> Dict[str, Any]:
    raise RuntimeError("unconditional failure")


def hang_task(params: Dict[str, Any], seed: int) -> Dict[str, Any]:
    """Hangs far past any test timeout on the marked index."""
    if params["i"] == params.get("hang_i", -1):
        time.sleep(600.0)
    return {"value": float(params["i"])}


def interrupt_task(params: Dict[str, Any], seed: int) -> Dict[str, Any]:
    """Raises KeyboardInterrupt on the marked index (a Ctrl-C stand-in).

    Serial mode only: in a pool the interrupt would surface as a plain
    task exception, not as the operator pressing Ctrl-C in the runner.
    """
    if params["i"] == params.get("interrupt_i", -1):
        raise KeyboardInterrupt
    return {"value": float(params["i"])}


def sleep_task(params: Dict[str, Any], seed: int) -> Dict[str, Any]:
    """Sleeps a fixed budget — wall-clock-bound work for speedup tests."""
    time.sleep(params["sleep_s"])
    return {"value": float(params["i"]) + float(seed % 97)}


def stack_sweep_task(params: Dict[str, Any], seed: int) -> Dict[str, Any]:
    """Run a tiny line network composed entirely from registry names.

    The sweep grids over ``router`` names and ``mac_params``; this function proves
    the declarative composition path end-to-end: names -> registry ->
    StackSpec -> live stack -> delivery metrics.
    """
    from repro.net.registry import StackSpec, compose
    from repro.sim import Simulator
    from repro.util.geometry import Point

    sim = Simulator(seed=seed)
    sim.enable_packet_tracing()
    spec = StackSpec(
        router=params["router"],
        mac=params.get("mac", "csma"),
        channel="log_distance",
        transport="basic",
        router_params=dict(params.get("router_params", {})),
        mac_params=dict(params.get("mac_params", {})),
    )
    composed = compose(sim, spec)
    net = composed.network
    n = int(params.get("n_nodes", 5))
    for i in range(n):
        net.create_node(i + 1, Point(i * 50.0, 0.0))
    for node_id in sorted(net.nodes):
        composed.transport.attach(node_id)
    for k in range(int(params.get("n_messages", 6))):
        src = 1 + (k % n)
        dst = 1 + ((k + 2) % n)
        sim.call_at(
            1.0 + 0.5 * k,
            lambda s=src, d=dst, i=k: composed.transport.send(s, d, payload=i),
        )
    sim.run(until=30.0)
    ratio = composed.transport.delivery_ratio()
    return {
        "delivery_ratio": ratio if ratio == ratio else 0.0,  # NaN-guard
        "tx_attempts": sim.metrics.counter("net.tx_attempts"),
        "fingerprint": sim.trace.fingerprint(),
    }
