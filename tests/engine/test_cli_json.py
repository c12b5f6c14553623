"""CLI tests for the engine-backed subcommands and their ``--json`` output."""

from __future__ import annotations

import json
import random

import pytest

from repro.cli import build_parser, main
from repro.engine import available_backends


class TestMultiplyJson:
    def test_json_round_trip(self, capsys):
        assert main([
            "multiply", "0x1234", "0x5678", "--modulus", "0xFFF1", "--json",
        ]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["value"] == (0x1234 * 0x5678) % 0xFFF1
        assert payload["value_hex"] == hex(payload["value"])
        assert payload["backend"] == "r4csa-lut"
        assert payload["modulus"] == 0xFFF1
        assert payload["modeled_cycles"] is not None

    def test_json_with_named_backend(self, capsys):
        assert main([
            "multiply", "5", "7", "--modulus", "97",
            "--backend", "montgomery", "--json",
        ]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["value"] == 35
        assert payload["backend"] == "montgomery"

    def test_text_output_unchanged(self, capsys):
        assert main(["multiply", "0x1234", "0x5678", "--modulus", "0xFFF1"]) == 0
        output = capsys.readouterr().out
        assert hex((0x1234 * 0x5678) % 0xFFF1) in output

    def test_unknown_backend_still_reports(self, capsys):
        assert main(["multiply", "1", "2", "--backend", "nonexistent"]) == 2
        assert "unknown backend" in capsys.readouterr().out


class TestBatchCommand:
    def test_json_round_trip_reproduces_products(self, capsys):
        seed, count, modulus = 7, 6, 0xFFF1
        assert main([
            "batch", "--count", str(count), "--modulus", str(modulus),
            "--seed", str(seed), "--backend", "barrett", "--json",
        ]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["count"] == count
        assert payload["seed"] == seed
        rng = random.Random(seed)
        pairs = [
            (rng.randrange(modulus), rng.randrange(modulus))
            for _ in range(count)
        ]
        assert payload["values"] == [(a * b) % modulus for a, b in pairs]
        assert payload["stats"]["multiplications"] == count
        assert payload["cache"]["misses"] == 1

    def test_text_output_mentions_reuse(self, capsys):
        assert main([
            "batch", "--count", "4", "--modulus", "997", "--backend", "montgomery",
        ]) == 0
        output = capsys.readouterr().out
        assert "per-modulus constants were cached" in output

    def test_rejects_nonpositive_count(self, capsys):
        assert main(["batch", "--count", "0"]) == 2
        assert "positive" in capsys.readouterr().out


class TestBackendsCommand:
    def test_lists_every_backend(self, capsys):
        assert main(["backends"]) == 0
        output = capsys.readouterr().out
        for name in available_backends():
            assert name in output
        assert "pim-" not in output

    def test_json_matches_registry(self, capsys):
        assert main(["backends", "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        backends = payload["backends"]
        assert [entry["name"] for entry in backends] == available_backends()
        by_name = {entry["name"]: entry for entry in backends}
        assert by_name["modsram"]["kind"] == "accelerator"
        assert by_name["r4csa-lut"]["has_cycle_model"] is True

    def test_json_has_only_the_listing(self, capsys):
        assert main(["backends", "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert set(payload) == {"backends"}

    def test_text_table_columns(self, capsys):
        assert main(["backends"]) == 0
        lines = capsys.readouterr().out.splitlines()
        header = next(line for line in lines if line.startswith("backend "))
        assert [column.strip() for column in header.split("|")] == [
            "backend",
            "kind",
            "tier",
            "cycle model",
            "result form",
        ]


class TestParser:
    def test_new_subcommands_parse(self):
        parser = build_parser()
        assert parser.parse_args(["batch", "--count", "8"]).command == "batch"
        assert parser.parse_args(["backends"]).command == "backends"

    def test_library_errors_exit_nonzero(self, capsys):
        # An even modulus is invalid for the montgomery backend.
        assert main([
            "multiply", "1", "2", "--modulus", "100", "--backend", "montgomery",
        ]) == 1
        assert "error:" in capsys.readouterr().out
