"""Shared fixtures for the ModSRAM reproduction test suite."""

from __future__ import annotations

import os
import random
import sys

import pytest

# Allow running the tests from a source checkout without installation.
_SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
if _SRC not in sys.path:
    sys.path.insert(0, _SRC)

from repro.ecc.curves_data import CURVE_SPECS  # noqa: E402


#: Moduli used across the suite: the two curves the paper names, the NIST
#: prime, and a few small odd moduli for exhaustive / fast checks.
BN254_P = CURVE_SPECS["bn254"].field_modulus
BN254_R = CURVE_SPECS["bn254"].scalar_field_modulus
SECP256K1_P = CURVE_SPECS["secp256k1"].field_modulus
P256_P = CURVE_SPECS["p256"].field_modulus
SMALL_MODULI = (97, 101, 251, 997, 65521, (1 << 61) - 1)


@pytest.fixture(scope="session")
def bn254_modulus() -> int:
    """The BN254 base-field prime (254 bits)."""
    return BN254_P


@pytest.fixture(scope="session")
def bn254_scalar_modulus() -> int:
    """The BN254 scalar-field prime (NTT friendly)."""
    assert BN254_R is not None
    return BN254_R


@pytest.fixture(scope="session")
def secp256k1_modulus() -> int:
    """The secp256k1 base-field prime (full 256 bits)."""
    return SECP256K1_P


@pytest.fixture(params=SMALL_MODULI, ids=lambda p: f"p={p}")
def small_modulus(request) -> int:
    """A selection of small odd moduli for fast cross-checks."""
    return request.param


@pytest.fixture()
def rng() -> random.Random:
    """A deterministic random generator for reproducible tests."""
    return random.Random(0xC0FFEE)
