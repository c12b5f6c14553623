"""The prepare() contract: idempotent and thread-safe (base-class docs).

The serving layers warm shared multipliers from worker threads, so a
per-modulus precomputation racing itself must build exactly once and
leave the instance consistent.  These tests pin that contract for the
paper's R4CSA-LUT, whose overflow table is built under the instance lock.
"""

from __future__ import annotations

import random
import threading

import repro.core.algorithms.r4csa_lut as r4csa_module
from repro.core.algorithms.r4csa_lut import R4CSALutMultiplier
from repro.ecc.curves_data import CURVE_SPECS

BN254_P = CURVE_SPECS["bn254"].field_modulus
THREADS = 12


def _race(target) -> list:
    """Run ``target`` from THREADS threads released by one barrier."""
    barrier = threading.Barrier(THREADS)
    errors = []

    def runner():
        try:
            barrier.wait()
            target()
        except Exception as exc:  # pragma: no cover - diagnostic only
            errors.append(exc)

    threads = [threading.Thread(target=runner) for _ in range(THREADS)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    return errors


class TestR4CSAPrepare:
    def test_concurrent_prepare_builds_the_lut_exactly_once(self, monkeypatch):
        builds = []
        real_build = r4csa_module.build_overflow_lut

        def counting_build(modulus, register_width, entry_count):
            builds.append(modulus)
            return real_build(
                modulus, register_width, entry_count=entry_count
            )

        monkeypatch.setattr(
            r4csa_module, "build_overflow_lut", counting_build
        )
        multiplier = R4CSALutMultiplier()
        errors = _race(lambda: multiplier.prepare(BN254_P))
        assert not errors
        assert builds == [BN254_P], (
            f"expected exactly one overflow-LUT build, got {len(builds)}"
        )

    def test_prepare_is_idempotent(self, monkeypatch):
        builds = []
        real_build = r4csa_module.build_overflow_lut
        monkeypatch.setattr(
            r4csa_module,
            "build_overflow_lut",
            lambda m, w, entry_count: (
                builds.append(m),
                real_build(m, w, entry_count=entry_count),
            )[1],
        )
        multiplier = R4CSALutMultiplier()
        for _ in range(5):
            multiplier.prepare(BN254_P)
        assert len(builds) == 1

    def test_races_still_multiply_correctly(self):
        multiplier = R4CSALutMultiplier()
        rng = random.Random(3)
        a, b = rng.randrange(BN254_P), rng.randrange(BN254_P)
        results = []
        errors = _race(
            lambda: (
                multiplier.prepare(BN254_P),
                results.append(multiplier.multiply(a, b, BN254_P)),
            )
        )
        assert not errors
        assert set(results) == {a * b % BN254_P}

