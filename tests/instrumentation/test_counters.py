"""Tests for the operation counter, a named tally."""

from __future__ import annotations

import pytest

from repro.instrumentation import OperationCounter


class TestOperationCounter:
    def test_basic_counting(self):
        counter = OperationCounter("test")
        counter.increment("modmul")
        counter.add("modmul", 4)
        counter.add("memory_read", 2)
        assert counter.count("modmul") == 5
        assert counter.count("memory_read") == 2
        assert counter.count("missing") == 0
        assert counter.as_dict() == {"memory_read": 2, "modmul": 5}

    def test_negative_amount_rejected(self):
        with pytest.raises(ValueError):
            OperationCounter().add("x", -1)

    def test_a_zero_amount_still_names_the_operation(self):
        # Callers that charge precomputed counts skip zeros, because a
        # zero add inserts the key (and moves the repr's key order).
        counter = OperationCounter()
        counter.add("modsub", 0)
        assert counter.as_dict() == {"modsub": 0}

    def test_as_dict_is_sorted(self):
        counter = OperationCounter()
        counter.add("zeta", 1)
        counter.add("alpha", 1)
        assert list(counter.as_dict()) == ["alpha", "zeta"]

    def test_reset(self):
        counter = OperationCounter()
        counter.add("x", 3)
        counter.reset()
        assert counter.as_dict() == {}
        assert counter.count("x") == 0

    def test_repr(self):
        counter = OperationCounter("repr-test")
        counter.add("zeta", 1)
        counter.add("alpha", 2)
        counter.add("zeta", 0)
        assert repr(counter) == (
            "OperationCounter(name='repr-test', totals={'zeta': 1, 'alpha': 2})"
        )
