"""ECDSA digital signatures.

Public-key cryptography — "digital signature and encryption" — is the first
application the paper's introduction motivates ModSRAM with.  This module
implements textbook ECDSA (key generation, signing, verification) over the
library's curve layer so that a complete, realistic workload can be run with
any multiplier backend, including the cycle-accurate ModSRAM model, and its
modular-multiplication profile measured.

The implementation is deterministic-nonce (RFC-6979-style hashing of the key
and message through SHA-256) so tests and benchmarks are reproducible; it is
a functional model for workload studies, not a hardened production signer.
"""

from __future__ import annotations

import hashlib
import hmac
from dataclasses import dataclass

from repro.ecc.curve import AffinePoint, EllipticCurve
from repro.ecc.scalar import scalar_multiply
from repro.errors import CurveError, OperandRangeError

__all__ = ["Signature", "KeyPair", "Ecdsa"]


@dataclass(frozen=True)
class Signature:
    """An ECDSA signature (r, s)."""

    r: int
    s: int


@dataclass(frozen=True)
class KeyPair:
    """A private scalar and its public point."""

    private_key: int
    public_key: AffinePoint


class Ecdsa:
    """ECDSA over one of the library's curves."""

    def __init__(self, curve: EllipticCurve) -> None:
        if curve.order is None:
            raise CurveError(
                f"curve {curve.name!r} has no group order configured; ECDSA "
                "needs the order of the base point"
            )
        self.curve = curve
        self.order = curve.order

    # ------------------------------------------------------------------ #
    # helpers
    # ------------------------------------------------------------------ #
    def _hash_to_scalar(self, message: bytes) -> int:
        digest = hashlib.sha256(message).digest()
        value = int.from_bytes(digest, "big")
        # Keep only the leftmost bits if the order is shorter than the hash.
        excess = value.bit_length() - self.order.bit_length()
        if excess > 0:
            value >>= excess
        return value % self.order

    def _deterministic_nonce(self, private_key: int, message: bytes) -> int:
        """A deterministic, per-(key, message) nonce in ``[1, order)``.

        Simplified RFC 6979: HMAC-SHA256 over the key and message, iterated
        until the candidate lands in range.  Deterministic nonces make the
        workload reproducible and avoid the catastrophic reused-nonce
        failure mode in examples.
        """
        key_bytes = private_key.to_bytes((self.order.bit_length() + 7) // 8, "big")
        counter = 0
        while True:
            material = key_bytes + message + counter.to_bytes(4, "big")
            candidate = int.from_bytes(
                hmac.new(key_bytes, material, hashlib.sha256).digest(), "big"
            )
            candidate %= self.order
            if candidate != 0:
                return candidate
            counter += 1

    # ------------------------------------------------------------------ #
    # key generation
    # ------------------------------------------------------------------ #
    def generate_keypair(self, private_key: int) -> KeyPair:
        """Derive the key pair for an explicit private scalar.

        The caller supplies the private scalar (from whatever randomness
        source is appropriate); the library derives the public point.
        """
        if not 1 <= private_key < self.order:
            raise OperandRangeError(
                "private key must satisfy 1 <= d < order"
            )
        public_key = scalar_multiply(self.curve, private_key, self.curve.generator)
        return KeyPair(private_key=private_key, public_key=public_key)

    # ------------------------------------------------------------------ #
    # signing and verification
    # ------------------------------------------------------------------ #
    def sign(self, private_key: int, message: bytes) -> Signature:
        """Sign a message with the private scalar."""
        if not 1 <= private_key < self.order:
            raise OperandRangeError("private key must satisfy 1 <= d < order")
        digest = self._hash_to_scalar(message)
        attempt = 0
        while True:
            nonce = self._deterministic_nonce(private_key, message + bytes([attempt]))
            point = scalar_multiply(self.curve, nonce, self.curve.generator)
            r = int(point.x) % self.order if not point.is_infinity else 0
            if r == 0:
                attempt += 1
                continue
            nonce_inverse = pow(nonce, -1, self.order)
            s = (nonce_inverse * (digest + r * private_key)) % self.order
            if s == 0:
                attempt += 1
                continue
            return Signature(r=r, s=s)

    def verify(self, public_key: AffinePoint, message: bytes, signature: Signature) -> bool:
        """Check a signature against a public key and message."""
        r, s = signature.r, signature.s
        if not (1 <= r < self.order and 1 <= s < self.order):
            return False
        if public_key.is_infinity or not self.curve.contains(public_key):
            return False
        digest = self._hash_to_scalar(message)
        s_inverse = pow(s, -1, self.order)
        u1 = (digest * s_inverse) % self.order
        u2 = (r * s_inverse) % self.order
        point = self.curve.add(
            scalar_multiply(self.curve, u1, self.curve.generator),
            scalar_multiply(self.curve, u2, public_key),
        )
        if point.is_infinity:
            return False
        return int(point.x) % self.order == r
