"""Bit-identity regression guard for the layered-stack refactor.

The hashes below are full trace fingerprints (packet tracing enabled) of
the reference scenarios in ``stack_scenarios.py``, captured from the
pre-refactor inline ``Network.send`` / ``Network.broadcast`` transmit path.
The layered :class:`repro.net.stack.FastPathDispatcher` must reproduce them
bit-for-bit: identical RNG draw order, identical scheduled delays, identical
trace records at identical virtual times.

If one of these fails, the refactored transmit path changed *behavior*, not
just structure.  Do not re-pin the hashes without understanding exactly
which draw or delay moved.
"""

import pytest

from tests.net.stack_scenarios import FINGERPRINT_SCENARIOS

# Captured at the pre-refactor baseline; see module docstring.
GOLDEN = {
    "flooding": "8e3310f67e3e95e2ec338dfcc7b110ce",
    "geo": "73edefe3121a38d64e0e1e5e86c27ab2",
    "aodv_reliable": "05dcccb869e8cb9d1517b5b510a1f855",
    "epidemic_mobile": "990a19776dd352aa76c6cab502646b2e",
    "spray_wait_mobile": "9d7d2133a7f7d0a0e4053b67858571d8",
}


def test_scenario_registry_matches_golden_set():
    assert set(FINGERPRINT_SCENARIOS) == set(GOLDEN)


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_fingerprint_bit_identical(name):
    assert FINGERPRINT_SCENARIOS[name]() == GOLDEN[name], (
        f"trace fingerprint for {name!r} diverged from the pre-refactor "
        "transmit path: the layered dispatcher changed behavior"
    )
