"""Pinned digests of the NTT on the engine's backends and on its own.

The values were recorded while every butterfly charged its own counts and
called the backend through a per-context closure.  Charging each
transform's counts once must not move any of them: the outputs of
``forward``, ``inverse`` and ``multiply_polynomials``, the counter's
totals and insertion order (its ``repr``), and the engine's multiplier
statistics, which see every backend call in order (``r4csa-lut`` and
``modsram-fast`` keep a depth-one LUT cache, so their ``precomputations``
count depends on that order).
"""

from __future__ import annotations

import hashlib
import random
from typing import Dict, List

import pytest

from repro.engine import Engine
from repro.instrumentation import OperationCounter
from repro.zkp import NttContext

#: The BN254 scalar field, the field ZKP systems transform over.
BN254_R = 0x30644E72E131A029B85045B68181585D2833E84879B9709143E1F593F0000001

#: ``backend -> (size, {part: digest})``.  The emulated backends run small
#: transforms; equal sizes see equal inputs, so their outputs agree.
ENGINE_PINS = {
    "schoolbook": (256, {
        "outputs": "ac3d34330ac47ff9",
        "counter": "f63c96616a5a5d41",
        "stats": "e28c82b7b3411d0c",
    }),
    "r4csa-lut": (32, {
        "outputs": "9812bdef053b62e9",
        "counter": "27269a86eef9a6ad",
        "stats": "29d6b9ffd7ab5f02",
    }),
    "montgomery": (64, {
        "outputs": "7e3776ae306b5ce0",
        "counter": "532febc19df208f3",
        "stats": "2567231de8354f59",
    }),
    "barrett": (64, {
        "outputs": "7e3776ae306b5ce0",
        "counter": "532febc19df208f3",
        "stats": "318993c9d84b8cbf",
    }),
    "modsram-fast": (32, {
        "outputs": "9812bdef053b62e9",
        "counter": "27269a86eef9a6ad",
        "stats": "4414f60a683c822f",
    }),
}

#: A context built without a multiplier, at 64 points.
PLAIN_PINS = {
    "outputs": "7e3776ae306b5ce0",
    "counter": "532febc19df208f3",
}


def _digest(lines) -> str:
    digest = hashlib.sha256()
    for line in lines:
        digest.update(f"{line}\n".encode())
    return digest.hexdigest()[:16]


def _outputs(context: NttContext) -> List[List[int]]:
    """A forward, its inverse and a polynomial product, seeded by size."""
    rng = random.Random(context.size)
    q, size = context.modulus, context.size
    values = [rng.randrange(q) for _ in range(size)]
    forward = context.forward(values)
    inverse = context.inverse(forward)
    assert inverse == values
    a = [rng.randrange(q) for _ in range(size // 2)]
    b = [rng.randrange(q) for _ in range(size // 2)]
    return [forward, inverse, context.multiply_polynomials(a, b)]


def _counts(counter: OperationCounter) -> List[object]:
    return [counter.as_dict(), repr(counter)]


@pytest.mark.parametrize("backend", sorted(ENGINE_PINS))
def test_engine_ntt_is_pinned(backend: str) -> None:
    size, pins = ENGINE_PINS[backend]
    engine = Engine(backend=backend)
    context = engine.ntt(size, modulus=BN254_R)
    digests: Dict[str, str] = {"outputs": _digest(_outputs(context))}
    digests["counter"] = _digest(_counts(context.counter))
    digests["stats"] = _digest([engine.stats().operations.as_dict()])
    assert digests == pins


def test_ntt_without_a_multiplier_is_pinned() -> None:
    context = NttContext(BN254_R, 64)
    digests = {"outputs": _digest(_outputs(context))}
    digests["counter"] = _digest(_counts(context.counter))
    assert digests == PLAIN_PINS
