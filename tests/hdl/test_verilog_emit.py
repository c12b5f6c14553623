"""Verilog emission: deterministic output, golden files, structural lint."""

from __future__ import annotations

import importlib.util
import os
import sys
from pathlib import Path

from repro.hdl.elaborate import elaborate_macro
from repro.hdl.verilog import emit_design, emit_module
from repro.modsram.config import ModSRAMConfig

REPO_ROOT = Path(__file__).resolve().parents[2]
GOLDEN_DIR = Path(__file__).resolve().parent / "golden"


def _load_lint():
    path = REPO_ROOT / "tools" / "lint_verilog.py"
    spec = importlib.util.spec_from_file_location("lint_verilog", path)
    module = importlib.util.module_from_spec(spec)
    # dataclass field resolution needs the module visible in sys.modules.
    sys.modules[spec.name] = module
    spec.loader.exec_module(module)
    return module


class TestDeterminism:
    def test_two_emissions_are_byte_identical(self):
        config = ModSRAMConfig().with_bitwidth(32)
        first = emit_design(elaborate_macro(config))
        second = emit_design(elaborate_macro(config))
        assert first == second

    def test_header_is_stable_and_environment_free(self):
        for text in emit_design(elaborate_macro()).values():
            header = text.splitlines()[0]
            assert header == (
                "// Generated by repro.hdl.verilog -- do not edit."
            )
            assert os.sep + "home" not in text and "/tmp" not in text

    def test_file_names_are_the_module_names(self):
        design = elaborate_macro()
        assert list(emit_design(design)) == [
            "modsram_ctrl.v",
            "modsram_datapath.v",
            "modsram_macro.v",
        ]


class TestGolden:
    """The checked-in golden RTL is exactly what the emitter produces.

    Regenerate (after an intentional netlist change) with::

        PYTHONPATH=src python -m repro.cli hdl emit
    """

    def test_golden_directory_is_complete(self):
        design = elaborate_macro()
        for name in emit_design(design):
            assert (GOLDEN_DIR / name).is_file(), (
                f"missing golden file {name}; regenerate with "
                "'repro hdl emit'"
            )

    def test_emitted_rtl_matches_golden(self):
        design = elaborate_macro()
        for name, text in emit_design(design).items():
            golden = (GOLDEN_DIR / name).read_text()
            assert text == golden, (
                f"{name} drifted from the golden copy; if the netlist "
                "change is intentional, regenerate with 'repro hdl emit'"
            )


class TestLint:
    def test_golden_rtl_lints_clean(self):
        lint = _load_lint()
        paths = sorted(GOLDEN_DIR.glob("*.v"))
        assert paths, "no golden Verilog to lint"
        assert lint.lint_files(paths) == []

    def test_lint_runs_on_fresh_emission(self, tmp_path):
        lint = _load_lint()
        for name, text in emit_design(elaborate_macro()).items():
            (tmp_path / name).write_text(text)
        assert lint.lint_files(sorted(tmp_path.glob("*.v"))) == []

    def test_single_module_emission_is_selfcontained(self):
        design = elaborate_macro()
        text = emit_module(design.ctrl)
        assert text.startswith("// Generated by repro.hdl.verilog")
        assert text.rstrip().endswith("endmodule // modsram_ctrl")
