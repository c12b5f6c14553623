"""Integration tests spanning multiple subsystems.

These exercise the paths a user of the library actually takes: elliptic-curve
arithmetic running on top of the R4CSA-LUT algorithm and on top of the
cycle-accurate ModSRAM model, NTT-based polynomial multiplication over the
ZKP scalar field, and the end-to-end latency projection that ties the
per-multiplication cycle count to a point operation.
"""

from __future__ import annotations

import pytest

from repro.core import R4CSALutMultiplier
from repro.ecc import PrimeField, build_curve, get_curve, scalar_multiply
from repro.ecc.curves_data import CURVE_SPECS
from repro.modsram import ModSRAMConfig, ModSRAMMultiplier, PAPER_CONFIG
from repro.zkp import NttContext


class TestEccOnR4CSALut:
    def test_point_doubling_matches_reference_backend(self):
        spec = CURVE_SPECS["bn254"]
        reference = build_curve(spec)
        hardware_algorithm = build_curve(
            spec, field=PrimeField(spec.field_modulus, multiplier=R4CSALutMultiplier())
        )
        assert hardware_algorithm.double(
            hardware_algorithm.generator
        ) == reference.double(reference.generator)

    def test_scalar_multiplication_matches_reference_backend(self):
        spec = CURVE_SPECS["secp256k1"]
        reference = build_curve(spec)
        hardware_algorithm = build_curve(
            spec, field=PrimeField(spec.field_modulus, multiplier=R4CSALutMultiplier())
        )
        scalar = 0xDEADBEEFCAFEBABE
        assert scalar_multiply(
            hardware_algorithm, scalar, hardware_algorithm.generator
        ) == scalar_multiply(reference, scalar, reference.generator)

    def test_field_counter_reports_modmul_count_of_point_addition(self):
        spec = CURVE_SPECS["bn254"]
        curve = build_curve(spec)
        generator = curve.generator
        doubled = curve.double(generator)
        curve.field.counter.reset()
        curve.jacobian_add_mixed(curve.to_jacobian(doubled), generator)
        modmuls = curve.field.counter.count("modmul")
        # Mixed Jacobian addition: 8M + 3S = 11 multiplications.
        assert modmuls == 11


class TestEccOnModSRAM:
    def test_point_addition_on_the_cycle_accurate_model(self):
        """An EC point addition computed entirely by the simulated macro."""
        spec = CURVE_SPECS["bn254"]
        adapter = ModSRAMMultiplier(PAPER_CONFIG)
        hardware = build_curve(
            spec, field=PrimeField(spec.field_modulus, multiplier=adapter)
        )
        reference = build_curve(spec)
        hardware_result = hardware.add(
            hardware.generator, hardware.double(hardware.generator)
        )
        reference_result = reference.add(
            reference.generator, reference.double(reference.generator)
        )
        assert hardware_result == reference_result
        count = adapter.stats.multiplications
        assert count, "the accelerator should have been exercised"
        # Extra overflow folds only add cycles, so a sum of 767 per
        # multiplication means every one took exactly 767.
        assert adapter.total_iteration_cycles() == 767 * count

    def test_point_operation_latency_projection(self):
        """Cycles per point addition = modmuls x 767 when LUTs are not shared."""
        spec = CURVE_SPECS["bn254"]
        adapter = ModSRAMMultiplier(PAPER_CONFIG)
        field = PrimeField(spec.field_modulus, multiplier=adapter)
        curve = build_curve(spec, field=field)
        curve.jacobian_add_mixed(curve.to_jacobian(curve.double(curve.generator)), curve.generator)
        modmuls = field.counter.count("modmul")
        assert adapter.total_iteration_cycles() == 767 * modmuls


class TestZkpPipeline:
    def test_polynomial_product_over_the_zkp_field(self, rng):
        modulus = CURVE_SPECS["bn254"].scalar_field_modulus
        assert modulus is not None
        context = NttContext(modulus, 64)
        a = [rng.randrange(modulus) for _ in range(32)]
        b = [rng.randrange(modulus) for _ in range(32)]
        product = context.multiply_polynomials(a, b)
        # Spot-check a few coefficients against the schoolbook convolution.
        for index in (0, 1, 17, 40, 62):
            expected = sum(
                a[i] * b[index - i]
                for i in range(max(0, index - 31), min(31, index) + 1)
            ) % modulus
            assert product[index] == expected

    def test_ntt_latency_projection_on_modsram(self):
        """Connect the kernel's modmul count to ModSRAM's per-op latency."""
        from repro.zkp import ntt_operation_counts

        counts = ntt_operation_counts(vector_size=2**15, bitwidth=256)
        cycles = counts.modular_multiplications * PAPER_CONFIG.expected_iteration_cycles
        latency_ms = cycles / (PAPER_CONFIG.frequency_mhz * 1e3)
        # A single macro handles the 2^15-point NTT's multiplications in
        # hundreds of milliseconds — the right order of magnitude for one
        # 420 MHz multiplier doing ~245k multiplications at 767 cycles each.
        assert 100 < latency_ms < 1000


class TestSmallMacroEndToEnd:
    def test_sixteen_bit_curve_like_workload(self, rng):
        """A full workload on a small macro: many multiplications, shared LUTs."""
        modulus = 65521
        adapter = ModSRAMMultiplier(ModSRAMConfig(extend_for_full_range=True).with_bitwidth(16))
        values = [(rng.randrange(modulus), rng.randrange(modulus)) for _ in range(8)]
        fixed_multiplicand = rng.randrange(modulus)
        for a, _ in values:
            assert (
                adapter.multiply(a, fixed_multiplicand, modulus)
                == (a * fixed_multiplicand) % modulus
            )
        # Every multiplication after the first reuses the resident LUTs.
        assert adapter.lut_reuse_rate() == pytest.approx(7 / 8)
