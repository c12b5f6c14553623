"""Pinned output of every exhibit, the consolidated report and the DSE.

The digests were recorded while each exhibit still went through the
experiment runner's disk cache and process pool and was rendered from a
deserialised payload.  However an exhibit is run and handed back, none of
them may move: the text of ``build_report()`` at both sizes, the JSON
payload of every registered experiment at its quick parameters, and the
spec, points and frontier of the default 640-point design-space sweep.
The ``design-point``, ``dse`` and ``dse-point`` digests and the sweep's
were recorded again when the cost model began charging the near-memory
registers (every DSE energy figure) and ``design-point`` gained its energy
breakdown; every other digest, and the sweep's frontier, stayed put.  The
``hdl-cosim`` digest was recorded again when each row gained
``energy_match`` (true on both quick rows); without that key the payload
reads the earlier digest.

Wall-clock figures are left out: the whole ``serving-throughput`` payload,
``hdl-cosim``'s per-row timings and the DSE run's elapsed seconds and rate.
"""

from __future__ import annotations

import hashlib
import json

import pytest

from repro.analysis.report import build_report
from repro.dse import default_sweep_spec, run_dse
from repro.experiments import available_experiments, get_experiment

#: ``build_report(quick=...)`` -> digest of its text.
REPORT_PINS = {
    False: "4ca47e7941974f0dcd502d60e56c992711f1d7d4bc9ebd5e0f62e4dc6f6943fe",
    True: "7f2445b32a936cc431983f63d77c1a5a80898e4d9877aae99986f66c264b0d65",
}

#: experiment -> digest of its payload at the quick parameters.
PAYLOAD_PINS = {
    "chip-scaling": "c057892cc197907b3f77b920c39ceda1bb226ab81101a89c1b9bb2b11f1542c4",
    "design-point": "7d2ed22b758c8b53af421b271f5fcd7b5e21f4b28cca03cfee0315ba5c9d7263",
    "dse": "cea579470cabaa8678de75bcbf9e5be9de6899b45129056becf26ef9f2019ef4",
    "dse-point": "0a9acc9e43c04ee9bc88f6f83318fa0ccaad035665c202add33fa60f1874c90d",
    "figure1": "382c4a88e36230339d512977dca0fdaf9ec27a33cb37990aab9e18201758ff75",
    "figure5": "29cdcf05dc5ef10f9da59ff7d8fe7cc89c0a59902e2eff4db99a09bfbdcf25ac",
    "figure6": "14c94660075ac92e69323bd79cc589ab157a5363379134df93d77d879e002e04",
    "figure7": "ee46e6feeed0cf776dd10e734ed5bcd229fcde28adeaf7123f310a82bc5d7cb8",
    "hdl-cosim": "8daa0085ca944ff004b21037d87e8d3e26df9492c705a783fdb185e55d191da7",
    "headline": "d678cee95ee07082c1cab8057f1d9c2adebb9ac70b9bc89b5fbb2b5715591d1c",
    "table1": "fdc95b37a33575095dabb011f608cf55250f2fa01f1378de87d534ac35f32b74",
    "table3": "66f2b66053fdb760b18129e8c9d7812b9437245ddb7fcd7022fabe6ecac7d6d8",
}

#: Digest of the default sweep's spec, points, frontier and dominated count.
DSE_PIN = "5b347565e60391b600b3770f6a2d058d06fa9ffda23ebb55d7bcefd4a894365e"

DSE_KEYS = ("spec", "points", "frontier", "dominated")
HDL_TIMING_KEYS = ("events_per_second", "hdl_seconds", "cycle_seconds")


def _digest(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def _json_digest(value) -> str:
    return _digest(json.dumps(value, sort_keys=True))


def _deterministic(name: str, payload: dict) -> dict:
    """The payload without its wall-clock fields."""
    if name == "dse":
        return {key: payload[key] for key in DSE_KEYS}
    if name == "hdl-cosim":
        payload = dict(payload)
        payload["rows"] = [
            {key: value for key, value in row.items() if key not in HDL_TIMING_KEYS}
            for row in payload["rows"]
        ]
    return payload


@pytest.mark.parametrize("quick", (False, True), ids=("full", "quick"))
def test_report_text(quick):
    assert _digest(build_report(quick=quick)) == REPORT_PINS[quick]


@pytest.mark.parametrize("name", sorted(PAYLOAD_PINS))
def test_quick_payload(name):
    definition = get_experiment(name)
    payload = definition.run(**definition.resolve_params(quick=True)).to_dict()
    assert _json_digest(_deterministic(name, payload)) == PAYLOAD_PINS[name]


def test_every_experiment_is_pinned_or_wall_clock():
    assert set(PAYLOAD_PINS) | {"serving-throughput"} == set(available_experiments())


def test_default_dse_sweep():
    run = run_dse(default_sweep_spec()).to_dict()
    assert len(run["points"]) == 640
    assert _json_digest({key: run[key] for key in DSE_KEYS}) == DSE_PIN
