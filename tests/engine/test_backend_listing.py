"""Regression tests: backend listings are deterministically sorted by name.

The multiplier registry is a plain dict populated by import side effects,
so without an explicit sort every listing (`repro backends`, ``available_backends``,
the JSON capability matrix) would depend on insertion order — which varies
with which module happened to be imported first.  These tests pin the
sorted contract, including after late out-of-order registrations.
"""

from __future__ import annotations

import json

from repro.cli import main
from repro.core import SchoolbookMultiplier, register_multiplier
from repro.core.algorithms.base import _REGISTRY as multiplier_registry
from repro.engine import Engine, available_backends, get_backend
from repro.engine.backend import _BACKENDS as backend_registry


class TestSortedListings:
    def test_available_backends_is_sorted(self):
        names = available_backends()
        assert names == sorted(names)
        assert len(names) == len(set(names))

    def test_listing_stays_sorted_after_out_of_order_registration(self):
        # "aaa-..." would lead the list; "zzz-..." would trail it.  Register
        # them in reverse-alphabetical order and check both land sorted, as
        # backends of their own.
        extras = []
        try:
            for name in ("zzz-test-backend", "aaa-test-backend"):
                register_multiplier(
                    type("Renamed", (SchoolbookMultiplier,), {"name": name})
                )
                extras.append(name)
            names = available_backends()
            assert names == sorted(names)
            assert names[0] == "aaa-test-backend"
            assert names[-1] == "zzz-test-backend"
            engine = Engine(backend="aaa-test-backend", modulus=97)
            assert int(engine.multiply(5, 7)) == 35
            assert engine.spec().backend == "aaa-test-backend"
        finally:
            for name in extras:
                multiplier_registry.pop(name, None)
                backend_registry.pop(name, None)

    def test_cli_text_listing_rows_are_sorted(self, capsys):
        assert main(["backends"]) == 0
        lines = capsys.readouterr().out.splitlines()
        rows = [
            line.split("|")[0].strip()
            for line in lines
            if "|" in line and not line.startswith(("backend", "-"))
        ]
        rows = [row for row in rows if row]
        assert rows == sorted(rows)
        assert rows == available_backends()

    def test_cli_json_listing_is_sorted(self, capsys):
        assert main(["backends", "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        names = [entry["name"] for entry in payload["backends"]]
        assert names == sorted(names)
        assert names == available_backends()

    def test_get_backend_agrees_with_the_listing(self):
        for name in available_backends():
            assert get_backend(name).info.name == name
