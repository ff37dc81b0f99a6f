"""The reach map's per-package ratchet on test-only plus unreached lines."""

from __future__ import annotations

from tests.tools import reach


def _map(**packages):
    out = {}
    for name, (test_only, unreached) in packages.items():
        out[name] = {
            "test_only": {"functions": sorted(test_only), "lines": sum(test_only.values())},
            "unreached": {"functions": sorted(unreached), "lines": sum(unreached.values())},
        }
    return {"packages": out}


BASE = _map(**{
    "repro.obs": ({"repro/obs/a.py::Ring.dump": 5}, {}),
    "repro.net": ({}, {"repro/net/b.py::helper": 3}),
})


def test_equal_or_fewer_lines_pass_whatever_changes_says():
    fewer = _map(**{"repro.obs": ({}, {}), "repro.net": ({}, {"repro/net/b.py::helper": 3})})
    assert reach.ratchet(BASE, BASE, "") == []
    assert reach.ratchet(BASE, fewer, "") == []


def test_a_newly_idle_function_must_be_named():
    grown = _map(**{
        "repro.obs": ({"repro/obs/a.py::Ring.dump": 5, "repro/obs/a.py::Ring.extend": 9}, {}),
        "repro.net": ({}, {"repro/net/b.py::helper": 3}),
    })
    [failure] = reach.ratchet(BASE, grown, "nothing relevant; Ring.extender is another name")
    assert failure.startswith("repro.obs: test-only + unreached own lines 5 -> 14")
    assert "repro/obs/a.py::Ring.extend" in failure
    assert reach.ratchet(BASE, grown, "`Ring.extend` stays: the oracle needs it.") == []


def test_a_new_package_and_a_grown_function_count_too():
    new_package = _map(**{
        "repro.obs": ({"repro/obs/a.py::Ring.dump": 5}, {}),
        "repro.net": ({}, {"repro/net/b.py::helper": 3}),
        "repro.new": ({}, {"repro/new/c.py::run": 2}),
    })
    assert len(reach.ratchet(BASE, new_package, "")) == 1
    assert reach.ratchet(BASE, new_package, "run is kept for E23") == []
    # Same functions, more lines: one of the package's listed functions is named.
    longer = _map(**{
        "repro.obs": ({"repro/obs/a.py::Ring.dump": 8}, {}),
        "repro.net": ({}, {"repro/net/b.py::helper": 3}),
    })
    assert len(reach.ratchet(BASE, longer, "")) == 1
    assert reach.ratchet(BASE, longer, "Ring.dump grew a check") == []
